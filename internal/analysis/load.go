package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the package's import path within the module (or the
	// directory path for packages outside it).
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds the type-checker's soft errors; a package with
	// type errors is returned (analysis may still be partially useful)
	// but callers should surface them.
	TypeErrors []error
}

// loader resolves and type-checks packages with the standard library
// only: module-internal import paths are mapped onto directories under
// the module root and loaded recursively, and everything else is
// resolved through go/importer's source importer (which parses GOROOT).
// This deliberately avoids golang.org/x/tools/go/packages to keep the
// analyzer dependency-free.
type loader struct {
	root         string // module root directory (absolute)
	modPath      string // module path from go.mod
	includeTests bool
	cache        map[string]*loadEntry // by absolute package dir
}

// The standard library is type-checked from source once per process, not
// once per Load: the source importer checks every package it is first
// asked for (~1.7 s for what one small program pulls in) and remembers
// it, so every Load shares one importer and — positions being relative
// to the importer's FileSet — one FileSet. Module-internal packages keep
// their per-Load cache. The importer is not safe for concurrent use;
// stdMu serializes it (the FileSet is).
var (
	stdMu  sync.Mutex
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
)

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// Load expands the given package patterns relative to baseDir and
// returns the matched packages, parsed and type-checked. Patterns may
// be filesystem paths ("./...", "./examples/pipeline", "."), module
// import paths ("sforder/internal/sched"), or either form with a
// trailing "/..." wildcard. Test files are excluded unless includeTests
// is set — consistently: a directory whose only Go files are tests is
// still matched under includeTests, wildcard walks included. Files
// excluded by build constraints ("//go:build" lines and _GOOS/_GOARCH
// filename suffixes, evaluated for the host configuration like the go
// tool would) are skipped rather than parsed, so a constrained-out
// file can neither break type-checking nor be rewritten by the
// instrumenter into a build it was never part of. testdata, vendor,
// hidden, and underscore directories are never walked.
func Load(baseDir string, patterns []string, includeTests bool) ([]*Package, error) {
	absBase, err := filepath.Abs(baseDir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(absBase)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:         root,
		modPath:      modPath,
		includeTests: includeTests,
		cache:        map[string]*loadEntry{},
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		dir := l.resolvePattern(pat, absBase)
		if recursive {
			walkGoDirs(dir, includeTests, add)
		} else if hasGoFiles(dir, includeTests) {
			add(dir)
		} else {
			return nil, fmt.Errorf("analysis: no Go files in %s (pattern %q)", dir, pat)
		}
	}

	var pkgs []*Package
	for _, d := range dirs {
		p, err := l.loadDir(d)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", d, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// resolvePattern maps one non-wildcard pattern to a directory.
func (l *loader) resolvePattern(pat, base string) string {
	switch {
	case pat == ".":
		return base
	case pat == l.modPath:
		return l.root
	case strings.HasPrefix(pat, l.modPath+"/"):
		return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, l.modPath+"/")))
	case filepath.IsAbs(pat):
		return pat
	default:
		return filepath.Join(base, filepath.FromSlash(pat))
	}
}

// ModuleInfo reports the root directory and module path of the Go
// module enclosing dir. The instrumenter uses it to reproduce a staged
// package at its module-relative location and point the staged go.mod's
// replace directive back at the source module.
func ModuleInfo(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	return findModule(abs)
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func walkGoDirs(root string, includeTests bool, add func(string)) {
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path, includeTests) {
				add(path)
			}
		}
		return nil
	})
}

func hasGoFiles(dir string, includeTests bool) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && includeFile(dir, e.Name(), includeTests) {
			return true
		}
	}
	return false
}

// includeFile decides whether one file participates in the package the
// way `go build` (plus -tests) would: .go extension, not hidden or
// underscore-prefixed, the _test.go rule, and the build constraints for
// the host GOOS/GOARCH ("//go:build" lines and filename suffixes, via
// go/build's matcher).
func includeFile(dir, name string, includeTests bool) bool {
	if !strings.HasSuffix(name, ".go") ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return false
	}
	if !includeTests && strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return err == nil && match
}

// loadDir parses and type-checks the package in dir (memoized).
func (l *loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if e, ok := l.cache[dir]; ok {
		if e.loading {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{loading: true}
	l.cache[dir] = e
	e.pkg, e.err = l.parseAndCheck(dir)
	e.loading = false
	return e.pkg, e.err
}

func (l *loader) parseAndCheck(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() || !includeFile(dir, ent.Name(), l.includeTests) {
			continue
		}
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files")
	}

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		base := f.Name.Name
		isTest := strings.HasSuffix(name, "_test.go")
		if pkgName == "" && !isTest {
			pkgName = base
		}
		// Skip external test packages (package foo_test): they would
		// need a second type-check universe.
		if pkgName != "" && base != pkgName {
			continue
		}
		files = append(files, f)
	}
	if pkgName == "" && len(files) > 0 {
		pkgName = files[0].Name.Name
	}

	pkg := &Package{
		Path: l.importPathFor(dir),
		Dir:  dir,
		Fset: fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
		Files: files,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(pkg.Path, fset, files, pkg.Info)
	return pkg, nil
}

// importPathFor derives the module-relative import path of dir.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from source under the module root; everything else goes to the
// standard library's source importer.
func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := l.root
		if path != l.modPath {
			dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
		}
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("package %s has type errors: %v", path, p.TypeErrors[0])
		}
		return p.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdlib.ImportFrom(path, srcDir, mode)
}
