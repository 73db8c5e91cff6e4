package instr

// The per-file rewriter. For every function scope that has a *Task in
// scope it collects the statement's shared memory operations, decides
// for each one whether `&expr` is a legal shadow address (the
// attribution rules shared with sfvet's SF005), whether the operation
// can race at all (the strand-locality pre-pass), and where the
// annotation must go relative to strand-advancing calls in the same
// statement, then records textual edits:
//
//	x = compute(x)
//
// becomes
//
//	t.Read(sforder.ShadowAddr(&x))  //sfinstr
//	t.Write(sforder.ShadowAddr(&x)) //sfinstr
//	x = compute(x)
//
// Placement invariant: an annotation executes on the same strand as the
// operation it describes. Within one statement every operation before
// the first Get/Create/Spawn/Sync call runs on the pre-advance strand
// (annotated before the statement) and every operation after the last
// runs on the post-advance strand (annotated after it); operations
// between two advances in one statement are skipped and recorded.
// Task.Read/Task.Write resolve the current strand at call time, so
// before/after placement is exact, not approximate.
//
// Operations the rewriter does not annotate are dropped in one of two
// ways, mirroring sfvet: silently when the skip cannot lose a race
// (constants, rvalue temporaries, string bytes, provably strand-local
// operations, access-path header reads), and with a Skip record when it
// can (map elements, unsafe.Pointer, interface unboxing, reflect,
// loop conditions, goroutine bodies, impure paths that cannot be
// hoisted). cmd/sfinstr -v prints the records; sfvet's SF005 warns
// about the statically detectable subset.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sforder/internal/analysis"
)

// marker tags every injected line. A function body containing it is
// treated as already instrumented and skipped whole, which makes
// re-instrumentation a no-op.
const marker = "//sfinstr"

// taskTmpName names a Task parameter the rewriter had to introduce
// (the source said `func(*sforder.Task) any` or `func(_ *sforder.Task)`).
const taskTmpName = "__sft"

// Skip records one shared memory operation the rewriter chose not to
// instrument, and why. Skips are reported, not fatal: a skipped
// operation means the detector stays blind to races through it, exactly
// like un-annotated code today.
type Skip struct {
	Pos    token.Position
	Expr   string
	Reason string
}

func (s Skip) String() string {
	if s.Expr == "" {
		return fmt.Sprintf("%s: %s", s.Pos, s.Reason)
	}
	return fmt.Sprintf("%s: %s: %s", s.Pos, s.Expr, s.Reason)
}

// scope is one function body being rewritten: the receiver expression
// for injected annotations and a commit hook that materializes any
// pending edits the annotations depend on (an added import, a renamed
// Task parameter). commit is idempotent.
type scope struct {
	task   string
	commit func()
}

func (sc scope) commitAll() {
	if sc.commit != nil {
		sc.commit()
	}
}

type fileRewriter struct {
	pkg  *analysis.Package
	file *ast.File
	src  []byte
	es   *editSet
	loc  *analysis.Locality

	qual       string // qualifier for ShadowAddr ("" under a dot import)
	importSpec string // import to add on first annotation; "" when present
	imported   bool

	tmpN   int
	reads  int
	writes int
	hoists int
	skips  []Skip
}

func rewriteFile(pkg *analysis.Package, file *ast.File, src []byte) *fileRewriter {
	r := &fileRewriter{
		pkg:  pkg,
		file: file,
		src:  src,
		es:   newEditSet(pkg.Fset, file),
		loc:  analysis.ComputeLocality(pkg.Info, pkg.Types, file),
	}
	r.resolveQual()
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		task, commit := r.taskFromFields(fd.Type.Params)
		r.rewriteFunc(fd.Body, scope{task: task, commit: commit})
	}
	return r
}

// resolveQual picks the qualifier for ShadowAddr from the file's
// imports, or schedules an import to be added if the root package is
// not imported under a usable name.
func (r *fileRewriter) resolveQual() {
	for _, imp := range r.file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "sforder" {
			continue
		}
		name := "sforder"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch name {
		case "_":
			continue // side-effect import; add a named one
		case ".":
			r.qual = ""
			return
		default:
			r.qual = name
			return
		}
	}
	r.qual = "__sf"
	r.importSpec = `__sf "sforder"`
}

// commitImport adds the scheduled sforder import, once, on the first
// committed annotation.
func (r *fileRewriter) commitImport() {
	if r.importSpec == "" || r.imported {
		return
	}
	r.imported = true
	for _, d := range r.file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if gd.Lparen.IsValid() {
			r.es.insert(gd.Lparen+1, "\n"+r.importSpec+"\n")
		} else {
			r.es.insert(gd.End(), "\nimport "+r.importSpec)
		}
		return
	}
	r.es.insert(r.file.Name.End(), "\n\nimport "+r.importSpec)
}

// taskFromFields resolves the Task-typed parameter in params to a
// receiver name for annotations. When the parameter is unnamed or
// blank, the returned commit renames it to __sft (naming every other
// parameter in the list "_", as Go requires all-or-none naming); the
// rename is only applied if an annotation actually commits.
func (r *fileRewriter) taskFromFields(params *ast.FieldList) (string, func()) {
	if params == nil {
		return "", nil
	}
	var taskField *ast.Field
	for _, f := range params.List {
		if tv, ok := r.pkg.Info.Types[f.Type]; ok && analysis.IsTaskType(tv.Type) {
			taskField = f
			break
		}
	}
	if taskField == nil {
		return "", nil
	}
	if len(taskField.Names) > 0 {
		for _, nm := range taskField.Names {
			if nm.Name != "_" {
				return nm.Name, r.commitImport
			}
		}
		blank := taskField.Names[0]
		done := false
		return taskTmpName, func() {
			if done {
				return
			}
			done = true
			r.commitImport()
			r.es.replace(blank.Pos(), blank.End(), taskTmpName)
		}
	}
	// Unnamed parameters: name them all.
	done := false
	return taskTmpName, func() {
		if done {
			return
		}
		done = true
		r.commitImport()
		for _, f := range params.List {
			if f == taskField {
				r.es.insert(f.Type.Pos(), taskTmpName+" ")
			} else {
				r.es.insert(f.Type.Pos(), "_ ")
			}
		}
	}
}

// markerIn reports whether an injected-line marker comment lies within
// [lo, hi] — the body was instrumented by a previous run.
func (r *fileRewriter) markerIn(lo, hi token.Pos) bool {
	for _, cg := range r.file.Comments {
		for _, c := range cg.List {
			if c.Pos() >= lo && c.End() <= hi && strings.HasPrefix(c.Text, marker) {
				return true
			}
		}
	}
	return false
}

// litRole classifies how a function literal relates to the enclosing
// task scope.
type litRole int

const (
	litEscape  litRole = iota // stored, returned, or passed to an ordinary call
	litOwnTask                // closure argument of Create/Spawn: runs on its own task
	litInherit                // immediately invoked or deferred: runs on the enclosing task
	litGo                     // go statement: outside the task model entirely
)

// rewriteFunc instruments one function body and recurses into the
// function literals it contains, resolving each literal's task scope.
func (r *fileRewriter) rewriteFunc(body *ast.BlockStmt, sc scope) {
	if r.markerIn(body.Pos(), body.End()) {
		return // previously instrumented; idempotent no-op
	}
	// Mixing machine annotations into a hand-annotated protocol would
	// double-count some accesses and imply coverage of others.
	if sc.task != "" && analysis.HasAnnotations(r.pkg.Info, body) {
		r.skip(body.Pos(), "", "function already carries hand annotations; left untouched")
		return
	}
	if sc.task != "" {
		r.stmtList(body.List, sc)
	}
	r.recurseLits(body, sc)
}

func (r *fileRewriter) recurseLits(body *ast.BlockStmt, sc scope) {
	roles := map[*ast.FuncLit]litRole{}
	ast.Inspect(body, func(n ast.Node) bool {
		setRole := func(lit *ast.FuncLit, role litRole) {
			if _, seen := roles[lit]; !seen {
				roles[lit] = role
			}
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				setRole(lit, litGo)
			}
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				setRole(lit, litInherit)
			}
		case *ast.CallExpr:
			if c, ok := analysis.ClassifyCall(r.pkg.Info, x); ok && c.Fn != nil {
				setRole(c.Fn, litOwnTask)
			} else if lit, ok := x.Fun.(*ast.FuncLit); ok {
				setRole(lit, litInherit)
			}
		}
		return true
	})
	// Visit direct literals only; each recursion handles its own nest.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		switch roles[lit] {
		case litOwnTask:
			task, commit := r.taskFromFields(lit.Type.Params)
			r.rewriteFunc(lit.Body, scope{task: task, commit: commit})
		case litInherit:
			// Task.Read/Write resolve the current strand at call time,
			// so a literal running on the enclosing task can use the
			// captured task variable even if strands advanced since.
			r.rewriteFunc(lit.Body, sc)
		case litGo:
			if sc.task != "" && len(lit.Body.List) > 0 {
				r.skip(lit.Pos(), "", "goroutine body is outside the task model; not instrumented")
			}
			r.rewriteFunc(lit.Body, scope{})
		default: // litEscape
			task, commit := r.taskFromFields(lit.Type.Params)
			if task == "" && sc.task != "" && len(lit.Body.List) > 0 {
				r.skip(lit.Pos(), "", "function literal may run on another strand and has no Task parameter; not instrumented")
			}
			r.rewriteFunc(lit.Body, scope{task: task, commit: commit})
		}
		return false
	})
}

// ---- statement walk ----

func (r *fileRewriter) stmtList(list []ast.Stmt, sc scope) {
	for i, s := range list {
		// After-annotations go right before the next statement when
		// there is one (clean layout) and after the statement's own end
		// otherwise.
		afterPos, afterInline := s.End(), false
		if i+1 < len(list) {
			afterPos, afterInline = list[i+1].Pos(), true
		}
		r.stmt(s, sc, s.Pos(), true, afterPos, afterInline)
	}
}

// stmt dispatches one statement. anchor is where pre-statement
// annotations may be inserted; canBefore is false in positions where no
// legal insertion point exists (an else-if condition, a labeled loop).
func (r *fileRewriter) stmt(s ast.Stmt, sc scope, anchor token.Pos, canBefore bool, afterPos token.Pos, afterInline bool) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		r.stmtList(x.List, sc)
	case *ast.LabeledStmt:
		// Insert before the label so `break L`/`continue L` targets keep
		// their label. A goto that jumps to the label skips the
		// annotations; that loses coverage, never adds false races.
		r.stmt(x.Stmt, sc, anchor, canBefore, afterPos, afterInline)
	case *ast.IfStmt:
		if x.Init != nil {
			r.simple(x.Init, sc, anchor, canBefore, token.NoPos, false)
			r.condReads(x.Cond, sc, anchor, false, "condition follows an init statement in the same line; not instrumented")
		} else {
			r.condReads(x.Cond, sc, anchor, canBefore, "no legal insertion point before this condition")
		}
		r.stmtList(x.Body.List, sc)
		switch e := x.Else.(type) {
		case *ast.BlockStmt:
			r.stmtList(e.List, sc)
		case *ast.IfStmt:
			r.stmt(e, sc, e.Pos(), false, token.NoPos, false)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			r.simple(x.Init, sc, anchor, canBefore, token.NoPos, false)
		}
		r.loopCond(x, sc)
		if x.Post != nil {
			r.dropShared(x.Post, "loop post statement is evaluated every iteration; not instrumented")
		}
		r.stmtList(x.Body.List, sc)
	case *ast.RangeStmt:
		r.rangeStmt(x, sc, anchor, canBefore)
	case *ast.SwitchStmt:
		if x.Init != nil {
			r.simple(x.Init, sc, anchor, canBefore, token.NoPos, false)
			r.condReads(x.Tag, sc, token.NoPos, false, "switch tag follows an init statement; not instrumented")
		} else {
			r.condReads(x.Tag, sc, anchor, canBefore, "no legal insertion point before this switch")
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				r.dropSharedExpr(e, "case expression is evaluated conditionally; not instrumented")
			}
			r.stmtList(cc.Body, sc)
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			r.simple(x.Init, sc, anchor, canBefore, token.NoPos, false)
		}
		if ta := typeSwitchAssert(x); ta != nil {
			ok := canBefore && x.Init == nil
			r.condReads(ta.X, sc, anchor, ok, "type-switch operand follows an init statement; not instrumented")
		}
		for _, c := range x.Body.List {
			r.stmtList(c.(*ast.CaseClause).Body, sc)
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			r.selectComm(cc.Comm, sc, anchor, canBefore)
			r.stmtList(cc.Body, sc)
		}
	case *ast.GoStmt, *ast.DeferStmt, *ast.ExprStmt, *ast.AssignStmt,
		*ast.IncDecStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.DeclStmt:
		r.simple(s, sc, anchor, canBefore, afterPos, afterInline)
	}
}

func typeSwitchAssert(x *ast.TypeSwitchStmt) *ast.TypeAssertExpr {
	switch a := x.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			ta, _ := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr)
			return ta
		}
	case *ast.ExprStmt:
		ta, _ := ast.Unparen(a.X).(*ast.TypeAssertExpr)
		return ta
	}
	return nil
}

// rangeStmt: the range operand is evaluated once, so its reads are
// annotatable before the loop. Per-iteration element reads and
// re-assigned range variables have no single insertion point and are
// recorded as skips.
func (r *fileRewriter) rangeStmt(x *ast.RangeStmt, sc scope, anchor token.Pos, canBefore bool) {
	var reads []ast.Expr
	r.collectReads(x.X, &reads)
	r.emit(x.X, sc, place{anchor: anchor, canBefore: canBefore,
		beforeReason: "no legal insertion point before this range statement"}, reads, nil)

	if t := exprType(r.pkg.Info, x.X); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer, *types.Map:
			if x.Value != nil && analysis.SharedOp(r.pkg.Info, r.loc, x.X) {
				r.skip(x.X.Pos(), r.exprText(x.X), "range element reads happen every iteration; not instrumented")
			}
		}
	}
	if x.Tok == token.ASSIGN {
		for _, v := range []ast.Expr{x.Key, x.Value} {
			if v == nil {
				continue
			}
			if r.filter(v, r.exprText(v)) {
				r.skip(v.Pos(), r.exprText(v), "range variable is re-assigned every iteration; not instrumented")
			}
		}
	}
	r.stmtList(x.Body.List, sc)
}

// selectComm: channel operands and send values of every case are
// evaluated once on select entry (in source order), so their reads are
// annotatable before the select. Received-value assignments happen only
// in the chosen case and are recorded as skips.
func (r *fileRewriter) selectComm(comm ast.Stmt, sc scope, anchor token.Pos, canBefore bool) {
	pl := place{anchor: anchor, canBefore: canBefore,
		beforeReason: "no legal insertion point before this select"}
	switch c := comm.(type) {
	case *ast.SendStmt:
		var reads []ast.Expr
		r.collectReads(c.Chan, &reads)
		r.collectReads(c.Value, &reads)
		r.emit(comm, sc, pl, reads, nil)
	case *ast.AssignStmt:
		var reads []ast.Expr
		for _, rh := range c.Rhs {
			if u, ok := ast.Unparen(rh).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				r.collectReads(u.X, &reads)
			}
		}
		r.emit(comm, sc, pl, reads, nil)
		if c.Tok == token.ASSIGN {
			for _, lh := range c.Lhs {
				if r.filter(lh, r.exprText(lh)) {
					r.skip(lh.Pos(), r.exprText(lh), "select receive target is written only in the chosen case; not instrumented")
				}
			}
		}
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			var reads []ast.Expr
			r.collectReads(u.X, &reads)
			r.emit(comm, sc, pl, reads, nil)
		}
	}
}

// condReads annotates the reads a condition-like expression makes. When
// ok is false there is no insertion point and shared attributable reads
// are recorded as skips with the given reason.
func (r *fileRewriter) condReads(e ast.Expr, sc scope, anchor token.Pos, ok bool, reason string) {
	if e == nil {
		return
	}
	var reads []ast.Expr
	r.collectReads(e, &reads)
	r.emit(e, sc, place{anchor: anchor, canBefore: ok, beforeReason: reason}, reads, nil)
}

// loopCond instruments the condition of a `for cond`/`for init; cond;
// post` loop. The header is re-evaluated every iteration, so a single
// annotation before the loop would under-report; instead the condition
// moves into the body as a guarded break —
//
//	for i := 0; ; i++ {
//		t.Read(sforder.ShadowAddr(&limit)) //sfinstr
//		if !(i < limit) {
//			break
//		} //sfinstr
//		...
//	}
//
// which preserves semantics exactly (`continue` still runs the post
// statement before the next evaluation) and gives every conditional
// read a legal per-iteration insertion point. Conditions that advance
// the strand cannot move — the advance count per iteration is part of
// the program being checked — and keep the skip behavior. Hoisting is
// disabled (place.noHoist): a hoist would rewrite a sub-range of the
// condition this method is about to delete from the header, and the
// two replacements would overlap.
func (r *fileRewriter) loopCond(x *ast.ForStmt, sc scope) {
	if x.Cond == nil {
		return
	}
	if len(r.advancingCalls(x.Cond)) > 0 {
		r.dropSharedExpr(x.Cond, "loop condition advances the strand; not instrumented")
		return
	}
	var reads []ast.Expr
	r.collectReads(x.Cond, &reads)
	bodyStart := x.Body.Lbrace + 1
	before := r.reads + r.writes
	r.emit(x.Cond, sc, place{anchor: bodyStart, canBefore: true, noHoist: true}, reads, nil)
	if r.reads+r.writes == before {
		return // nothing annotated: leave the header alone
	}
	// The annotations above were recorded at bodyStart first, so they
	// land ahead of the guard (same-offset edits keep recording order).
	cond := r.es.renderExpr(r.src, x.Cond)
	r.es.insert(bodyStart, fmt.Sprintf("if !(%s) {\nbreak\n} %s\n", cond, marker))
	r.es.replace(x.Cond.Pos(), x.Cond.End(), "")
}

// dropShared records skips for every shared attributable operation in a
// statement that has no insertion point at all.
func (r *fileRewriter) dropShared(s ast.Stmt, reason string) {
	reads, writes := r.stmtAccesses(s)
	for _, e := range append(reads, writes...) {
		if r.filter(e, r.exprText(e)) {
			r.skip(e.Pos(), r.exprText(e), reason)
		}
	}
}

func (r *fileRewriter) dropSharedExpr(e ast.Expr, reason string) {
	var reads []ast.Expr
	r.collectReads(e, &reads)
	for _, re := range reads {
		if r.filter(re, r.exprText(re)) {
			r.skip(re.Pos(), r.exprText(re), reason)
		}
	}
}

// ---- simple statements ----

// stmtAccesses collects the read and write accesses a simple statement
// makes, in evaluation-relevant source order.
func (r *fileRewriter) stmtAccesses(s ast.Stmt) (reads, writes []ast.Expr) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, rh := range x.Rhs {
			r.collectReads(rh, &reads)
		}
		switch x.Tok {
		case token.DEFINE:
			// A := definition writes a variable no other strand has seen
			// yet — except re-assigned existing variables in a mixed
			// define.
			for _, lh := range x.Lhs {
				if id, ok := lh.(*ast.Ident); ok && r.pkg.Info.Defs[id] != nil {
					continue
				}
				writes = append(writes, lh)
				r.pathInteriorReads(lh, &reads)
			}
		case token.ASSIGN:
			for _, lh := range x.Lhs {
				writes = append(writes, lh)
				r.pathInteriorReads(lh, &reads)
			}
		default: // op-assign: x += e reads and writes x
			lh := x.Lhs[0]
			reads = append(reads, lh)
			r.pathInteriorReads(lh, &reads)
			writes = append(writes, lh)
		}
	case *ast.IncDecStmt:
		reads = append(reads, x.X)
		r.pathInteriorReads(x.X, &reads)
		writes = append(writes, x.X)
	case *ast.ExprStmt:
		r.collectReads(x.X, &reads)
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			r.collectReads(res, &reads)
		}
	case *ast.SendStmt:
		r.collectReads(x.Chan, &reads)
		r.collectReads(x.Value, &reads)
	case *ast.GoStmt:
		r.collectReads(x.Call, &reads)
	case *ast.DeferStmt:
		r.collectReads(x.Call, &reads)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						r.collectReads(v, &reads)
					}
				}
			}
		}
	}
	return reads, writes
}

func (r *fileRewriter) simple(s ast.Stmt, sc scope, anchor token.Pos, canBefore bool, afterPos token.Pos, afterInline bool) {
	// Parity with SF005: reflect-based mutations have no address to
	// take, in rewrite mode as in analysis mode.
	analysis.InspectShallow(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && analysis.IsReflectMutation(r.pkg.Info, call) {
			r.skip(call.Pos(), r.exprText(call), "reflect-based memory operation; not attributable")
		}
		return true
	})
	reads, writes := r.stmtAccesses(s)
	pl := place{
		anchor:       anchor,
		canBefore:    canBefore,
		beforeReason: "no legal insertion point before this statement",
		afterPos:     afterPos,
		afterInline:  afterInline,
	}
	if !allowAfter(s) {
		pl.afterPos = token.NoPos
	}
	r.emit(s, sc, pl, reads, writes)
}

// allowAfter reports whether an annotation may be appended after the
// statement: not when the statement transfers control away.
func allowAfter(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false
	}
	return true
}

// ---- access collection ----

// collectReads appends every read access in e: each maximal access path
// (identifier / selector / index / dereference chain) plus the reads
// its interior makes (index expressions, non-path bases). Access-path
// headers are not separate reads — reading a[i] is attributed to the
// element, not also to a's slice header; see DESIGN for the asymmetry
// argument. Function literals are separate scopes and are not entered.
func (r *fileRewriter) collectReads(e ast.Expr, out *[]ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		r.collectReads(x.X, out)
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		*out = append(*out, e)
		r.pathInteriorReads(e, out)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &path computes an address and reads nothing — but interior
			// index expressions still evaluate.
			r.pathInteriorReads(x.X, out)
		} else {
			r.collectReads(x.X, out)
		}
	case *ast.BinaryExpr:
		r.collectReads(x.X, out)
		r.collectReads(x.Y, out)
	case *ast.CallExpr:
		r.collectReads(x.Fun, out)
		for _, a := range x.Args {
			r.collectReads(a, out)
		}
	case *ast.IndexListExpr:
		r.collectReads(x.X, out)
	case *ast.TypeAssertExpr:
		r.collectReads(x.X, out)
	case *ast.SliceExpr:
		// Slicing reads the header (skipped as a base) and the bounds.
		r.pathInteriorReads(x.X, out)
		r.collectReads(x.Low, out)
		r.collectReads(x.High, out)
		r.collectReads(x.Max, out)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if !r.isFieldKey(kv.Key) {
					r.collectReads(kv.Key, out)
				}
				r.collectReads(kv.Value, out)
			} else {
				r.collectReads(el, out)
			}
		}
	}
}

// pathInteriorReads walks down an access path collecting the reads its
// interior makes without recording the path's own bases: index
// expressions, and full collection once the base stops being a path
// (a call result, a received value, ...).
func (r *fileRewriter) pathInteriorReads(e ast.Expr, out *[]ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			r.collectReads(x.Index, out)
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return
		default:
			r.collectReads(ast.Unparen(e), out)
			return
		}
	}
}

// isFieldKey reports whether a composite-literal key is a struct field
// name (not a value read) rather than a map/array key expression.
func (r *fileRewriter) isFieldKey(key ast.Expr) bool {
	id, ok := key.(*ast.Ident)
	if !ok {
		return false
	}
	switch obj := r.pkg.Info.Uses[id].(type) {
	case *types.Var:
		return obj.IsField()
	case nil:
		return true // unresolved key in a struct literal
	}
	return false
}

// ---- emission ----

// place says where annotations around one statement may go.
type place struct {
	anchor       token.Pos // insertion point for pre-statement annotations
	canBefore    bool
	beforeReason string
	afterPos     token.Pos // NoPos: post-statement placement impossible
	afterInline  bool      // afterPos is the next statement (text\n) vs the stmt end (\ntext\n)
	noHoist      bool      // hoisting is off: the statement text itself is about to be rewritten
}

type pending struct {
	e     ast.Expr
	write bool
	after bool
}

// filter decides whether e is an operation to annotate: a non-constant
// value, touching memory that may be visible to another strand, whose
// address attribution succeeds. Surfaced attribution failures (map
// elements, unsafe, interface unboxing) are recorded; everything else
// is dropped silently.
func (r *fileRewriter) filter(e ast.Expr, text string) bool {
	tv, ok := r.pkg.Info.Types[e]
	if !ok || tv.Value != nil || !tv.IsValue() {
		return false
	}
	if !analysis.SharedOp(r.pkg.Info, r.loc, e) {
		return false
	}
	attr := analysis.AttributeAddr(r.pkg.Info, e)
	switch {
	case attr == analysis.AttrOK:
		return true
	case attr.Surfaced():
		r.skip(e.Pos(), text, attr.String())
	}
	return false
}

// emit filters, places, hoists, deduplicates, and inserts the
// annotations for one statement (or condition expression) n.
func (r *fileRewriter) emit(n ast.Node, sc scope, pl place, readEs, writeEs []ast.Expr) {
	advs := r.advancingCalls(n)
	var pend []pending
	add := func(e ast.Expr, isWrite bool) {
		text := r.exprText(e)
		if !r.filter(e, text) {
			return
		}
		after := false
		if len(advs) > 0 {
			first, last := advs[0], advs[len(advs)-1]
			switch {
			case isWrite:
				// Assignment writes complete after the RHS, post-advance.
				after = true
			case e.End() <= first.End():
				// Evaluated before (or as an argument of) the first
				// advancing call: pre-advance strand.
			case e.Pos() >= last.End():
				after = true
			default:
				r.skip(e.Pos(), text, "evaluated between two strand advances in one statement; not instrumented")
				return
			}
		}
		if after && !pl.afterPos.IsValid() {
			r.skip(e.Pos(), text, "needs a post-advance annotation but the statement transfers control; not instrumented")
			return
		}
		if !after && !pl.canBefore {
			r.skip(e.Pos(), text, pl.beforeReason)
			return
		}
		pend = append(pend, pending{e: e, write: isWrite, after: after})
	}
	for _, e := range readEs {
		add(e, false)
	}
	for _, e := range writeEs {
		add(e, true)
	}
	if len(pend) == 0 {
		return
	}
	if imp := r.topImpure(n); len(imp) > 0 {
		pend = r.hoistOrDrop(sc, pl, pend, imp)
	}
	seen := map[string]bool{}
	for _, p := range pend {
		text := r.es.renderExpr(r.src, p.e)
		key := fmt.Sprintf("%v\x00%s", p.write, text)
		if seen[key] {
			continue
		}
		seen[key] = true
		r.annotate(sc, pl, p.after, p.write, text)
	}
}

// advancingCalls lists the strand-advancing API calls
// (Get/Create/Spawn/Sync) under n, shallowly, in source order.
func (r *fileRewriter) advancingCalls(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	analysis.InspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if c, ok := analysis.ClassifyCall(r.pkg.Info, call); ok && c.Kind.Advances() {
				out = append(out, call)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// topImpure lists the topmost side-effecting expressions (calls and
// channel receives) under n, outside function literals. Nested impure
// expressions move together with their host when hoisted.
func (r *fileRewriter) topImpure(n ast.Node) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			out = append(out, x)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				out = append(out, x)
				return false
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// hoistOrDrop handles annotated accesses whose rendered text would
// duplicate a side effect (`f().x` — evaluating the annotation's
// argument would call f again). Such an access survives only when the
// side effects can be hoisted into a temporary before the statement
// without reordering evaluation:
//
//	__sf0 := f() //sfinstr
//	t.Read(sforder.ShadowAddr(&__sf0.x)) //sfinstr
//	v := __sf0.x
//
// which requires that every side effect of the statement lies inside
// this one access path, that the access is the statement's first, and
// that each hoisted expression is single-valued and not a Task API
// call. Anything else is dropped with a record.
func (r *fileRewriter) hoistOrDrop(sc scope, pl place, pend []pending, stmtImp []ast.Expr) []pending {
	within := func(inner, outer ast.Expr) bool {
		return inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
	}
	var keep []pending
	for _, p := range pend {
		var imp []ast.Expr
		for _, c := range stmtImp {
			if within(c, p.e) {
				imp = append(imp, c)
			}
		}
		if len(imp) == 0 {
			keep = append(keep, p)
			continue
		}
		ok := pl.canBefore && !pl.noHoist && !p.after && len(imp) == len(stmtImp)
		if ok {
			for _, q := range pend {
				if q.e != p.e && q.e.Pos() < p.e.Pos() {
					ok = false // hoisting would move the side effect ahead of q's read
					break
				}
			}
		}
		if ok {
			for _, c := range imp {
				if !r.hoistable(c) {
					ok = false
					break
				}
			}
		}
		if !ok {
			r.skip(p.e.Pos(), r.exprText(p.e), "access path has side effects that cannot be hoisted; not instrumented")
			continue
		}
		for _, c := range imp {
			tmp := fmt.Sprintf("__sf%d", r.tmpN)
			r.tmpN++
			sc.commitAll()
			r.es.insert(pl.anchor, fmt.Sprintf("%s := %s %s\n", tmp, r.exprText(c), marker))
			r.es.replace(c.Pos(), c.End(), tmp)
			r.hoists++
		}
		keep = append(keep, p)
	}
	return keep
}

// hoistable reports whether one side-effecting expression may be bound
// to a temporary: single-valued and not a structured-futures API call
// (moving a Get/Create/Spawn/Sync would move a strand advance).
func (r *fileRewriter) hoistable(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if _, isSF := analysis.ClassifyCall(r.pkg.Info, call); isSF {
			return false
		}
	}
	tv, ok := r.pkg.Info.Types[e]
	if !ok || !tv.IsValue() {
		return false
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return false
	}
	return true
}

// annotate inserts one injected line.
func (r *fileRewriter) annotate(sc scope, pl place, after, write bool, text string) {
	sc.commitAll()
	r.commitImport()
	method := "Read"
	if write {
		method = "Write"
	}
	shadow := "ShadowAddr"
	if r.qual != "" {
		shadow = r.qual + ".ShadowAddr"
	}
	line := fmt.Sprintf("%s.%s(%s(&%s)) %s", sc.task, method, shadow, text, marker)
	switch {
	case !after:
		r.es.insert(pl.anchor, line+"\n")
	case pl.afterInline:
		r.es.insert(pl.afterPos, line+"\n")
	case r.lineEndsAt(pl.afterPos):
		// The statement ends its line: the annotation starts a fresh one
		// and the original newline closes it.
		r.es.insert(pl.afterPos, "\n"+line)
	default:
		// Something (a closing brace, another statement) follows on the
		// same line; it must not be swallowed by the marker comment.
		r.es.insert(pl.afterPos, "\n"+line+"\n")
	}
	if write {
		r.writes++
	} else {
		r.reads++
	}
}

// lineEndsAt reports whether only horizontal whitespace separates pos
// from the end of its source line.
func (r *fileRewriter) lineEndsAt(pos token.Pos) bool {
	for i := r.es.offset(pos); i < len(r.src); i++ {
		switch r.src[i] {
		case ' ', '\t', '\r':
		case '\n':
			return true
		default:
			return false
		}
	}
	return true
}

func (r *fileRewriter) skip(pos token.Pos, expr, reason string) {
	r.skips = append(r.skips, Skip{Pos: r.pkg.Fset.Position(pos), Expr: expr, Reason: reason})
}

func (r *fileRewriter) exprText(e ast.Expr) string {
	return string(r.src[r.es.offset(e.Pos()):r.es.offset(e.End())])
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
