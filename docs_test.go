package sforder_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// An experiment citation: the word EXPERIMENTS (or EXPERIMENTS.md),
	// then one section ID or several joined by slashes.
	experimentsCite = regexp.MustCompile(`EXPERIMENTS(?:\.md)?,? ([A-Z]{2,}[0-9]*(?:/[A-Z]{2,}[0-9]*)*)\b`)
	// A design citation: DESIGN or DESIGN.md, then §n, or §n/§m.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)? ?§[0-9]+(?:/§[0-9]+)*`)
	sectionNum = regexp.MustCompile(`§([0-9]+)`)
	// A citation may break across a line, and a Go comment's line starts
	// with "//": the scan joins the lines and drops the comment markers.
	lineBreak = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
)

// TestCitationsResolve holds the documents to their cross-references:
// every experiment section a Go comment or a document cites must be a
// "## " heading of EXPERIMENTS.md, and every design section a "## n."
// heading of DESIGN.md. The benchmark module and the change log are not
// scanned; the first is frozen, the second is history.
func TestCitationsResolve(t *testing.T) {
	headings := func(path string) []string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var hs []string
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "## ") {
				hs = append(hs, line)
			}
		}
		return hs
	}
	experiments, design := headings("EXPERIMENTS.md"), headings("DESIGN.md")
	hasExperiment := func(id string) bool {
		word := regexp.MustCompile(`\b` + id + `\b`)
		for _, h := range experiments {
			if word.MatchString(h) {
				return true
			}
		}
		return false
	}
	hasDesign := func(n string) bool {
		for _, h := range design {
			if strings.HasPrefix(h, "## "+n+".") {
				return true
			}
		}
		return false
	}

	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "DESIGN.md", "ROADMAP.md", "EXPERIMENTS.md")

	cites := 0
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := lineBreak.ReplaceAllString(string(b), " ")
		for _, m := range experimentsCite.FindAllStringSubmatch(text, -1) {
			for _, id := range strings.Split(m[1], "/") {
				cites++
				if !hasExperiment(id) {
					t.Errorf("%s cites %q: EXPERIMENTS.md has no \"## \" heading naming %s", path, m[0], id)
				}
			}
		}
		for _, m := range designCite.FindAllString(text, -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(m, -1) {
				cites++
				if !hasDesign(n[1]) {
					t.Errorf("%s cites %q: DESIGN.md has no \"## %s.\" heading", path, m, n[1])
				}
			}
		}
	}
	if cites == 0 {
		t.Error("found no citations at all; the patterns no longer match the documents")
	}
}
