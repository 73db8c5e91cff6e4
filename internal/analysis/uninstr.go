package analysis

// SF005 uninstrumentable-operation: a memory operation in task-scoped
// code that the sfinstr rewriter cannot attribute to a shadow address —
// map element accesses (no address to take), accesses through
// unsafe.Pointer (type-based attribution defeated), values unboxed from
// interfaces (the copy's address does not name the shared cell), and
// reflect-based mutation. sfinstr silently skips such operations at
// rewrite time; this pass surfaces the lost coverage in analysis mode,
// so "the instrumented binary reported no races" is never mistaken for
// "these operations were checked". The pass stays silent when:
//
//   - the operation is strand-local per the locality pre-pass (a
//     skipped op one strand can reach cannot hide a race);
//   - the function already carries hand annotations (the author is
//     annotating; sfinstr coverage is moot there), mirroring SF003;
//   - the closure's Task escapes into an ordinary call (annotation may
//     happen interprocedurally), mirroring SF003.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func checkUninstrumentable(p *Package, f *ast.File, report reporter) {
	loc := ComputeLocality(p.Info, p.Types, f)
	for _, fs := range functionsOf(f) {
		param := scopeTaskParam(p, fs)
		if param == nil {
			continue // no Task in scope: sfinstr does not rewrite here
		}
		if HasAnnotations(p.Info, fs.body) || TaskEscapes(p.Info, fs.body, param) {
			continue
		}
		scanUninstrumentable(p, loc, fs.body, report)
	}
}

// scopeTaskParam returns the scope's own Task-typed parameter, if any.
func scopeTaskParam(p *Package, fs funcScope) *types.Var {
	if fs.lit != nil {
		return TaskParamOf(p.Info, fs.lit)
	}
	if fs.decl.Type.Params == nil {
		return nil
	}
	for _, field := range fs.decl.Type.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && IsTaskType(tv.Type) {
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

// scanUninstrumentable flags unattributable shared memory ops in one
// scope (nested literals excluded — they are scopes of their own).
func scanUninstrumentable(p *Package, loc *Locality, body ast.Node, report reporter) {
	var flagged []ast.Node // suppress nested re-reports inside a flagged op
	within := func(n ast.Node) bool {
		for _, fl := range flagged {
			if n.Pos() >= fl.Pos() && n.End() <= fl.End() {
				return true
			}
		}
		return false
	}
	seen := map[token.Pos]bool{}
	flag := func(n ast.Node, format string, args ...any) {
		if within(n) || seen[n.Pos()] {
			return
		}
		seen[n.Pos()] = true
		flagged = append(flagged, n)
		report(n.Pos(), "SF005", format, args...)
	}
	InspectShallow(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if IsReflectMutation(p.Info, x) {
				flag(x, "reflect-based memory operation: sfinstr cannot attribute a shadow address, so this access stays invisible to the detector")
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			e := n.(ast.Expr)
			res := AttributeAddr(p.Info, e)
			if !res.Surfaced() || !SharedOp(p.Info, loc, e) {
				return true
			}
			flag(n, "shared memory operation sfinstr cannot attribute (%s): it is skipped at rewrite time and stays invisible to the detector", res)
		}
		return true
	})
}
