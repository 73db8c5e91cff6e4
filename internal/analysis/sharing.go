package analysis

// SF003 unannotated-sharing: a local variable is written by the closure
// passed to Create or Spawn and also accessed by the enclosing function
// outside that closure, and nothing in the enclosing function carries a
// Task.Read/Task.Write shadow annotation. SF-Order only orders accesses
// it is told about (§4): sharing that is never annotated is invisible
// to the detector, so a determinacy race through that variable can
// never be reported. The pass is deliberately conservative about when
// it stays silent:
//
//   - only direct writes to the captured variable itself count
//     (`v = ...`, `v++`); writes through an index or field
//     (`out[i] = ...`) are the standard disjoint-partition idiom and
//     may be annotated element-wise;
//   - Future-typed captures and the closure's own Task parameter are
//     exempt — handles are the synchronization mechanism, not data;
//   - if the closure's Task parameter escapes into an ordinary call
//     (`a = fib(c, n-1)`), annotations may happen interprocedurally,
//     so the whole closure is skipped;
//   - any Read/Write annotation anywhere in the enclosing function
//     (nested closures included) silences the pass for that function:
//     the author is annotating, and matching addresses statically is
//     out of scope.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func checkUnannotatedSharing(p *Package, f *ast.File, report reporter) {
	for _, fs := range functionsOf(f) {
		if HasAnnotations(p.Info, fs.body) {
			continue
		}
		InspectShallow(fs.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sc, ok := ClassifyCall(p.Info, call)
			if !ok || (sc.Kind != CallCreate && sc.Kind != CallSpawn) || sc.Fn == nil {
				return true
			}
			checkClosureSharing(p, fs, sc.Fn, report)
			return true
		})
	}
}

// HasAnnotations reports whether any Task.Read/Task.Write call occurs
// anywhere under n, nested function literals included. SF003, SF005 and
// sfinstr all leave such a function alone: its author is annotating by
// hand.
func HasAnnotations(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if sc, ok := ClassifyCall(info, call); ok && (sc.Kind == CallRead || sc.Kind == CallWrite) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkClosureSharing flags direct writes inside fn to variables that
// are declared outside fn and also used by the enclosing function
// outside fn.
func checkClosureSharing(p *Package, fs funcScope, fn *ast.FuncLit, report reporter) {
	param := TaskParamOf(p.Info, fn)
	if param != nil && TaskEscapes(p.Info, fn.Body, param) {
		return
	}
	seen := map[*types.Var]bool{}
	flagWrite := func(e ast.Expr, pos token.Pos) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		v := objOf(p.Info, id)
		if v == nil || seen[v] || v == param || v.IsField() || IsFutureType(v.Type()) || IsTaskType(v.Type()) {
			return
		}
		if !declaredOutside(fn, v) || !usedOutside(p.Info, fs.body, fn, v) {
			return
		}
		seen[v] = true
		report(pos, "SF003",
			"captured variable %q is written by this task closure and accessed by the enclosing function, but the function carries no Task.Read/Task.Write annotations: the detector cannot see this sharing",
			v.Name())
	}
	ast.Inspect(fn.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				flagWrite(lh, x.Pos())
			}
		case *ast.IncDecStmt:
			flagWrite(x.X, x.Pos())
		}
		return true
	})
}

// TaskEscapes reports whether the Task parameter param is used anywhere
// in body other than as the receiver of a classified API call (or the
// task argument of GetTyped) — e.g. passed to a helper function, which
// may annotate on the body's behalf.
func TaskEscapes(info *types.Info, body ast.Node, param *types.Var) bool {
	uses, allowed := 0, 0
	countRecv := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.Uses[id] == param {
			allowed++
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == param {
			uses++
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sc, ok := ClassifyCall(info, call); ok {
				if sc.Recv != nil {
					countRecv(sc.Recv)
				} else if len(call.Args) > 0 {
					countRecv(call.Args[0]) // GetTyped(t, h)
				}
			}
		}
		return true
	})
	return uses > allowed
}

// usedOutside reports whether v is referenced anywhere in body outside
// fn's source range.
func usedOutside(info *types.Info, body *ast.BlockStmt, fn *ast.FuncLit, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			return true
		}
		if n.Pos() >= fn.Pos() && n.End() <= fn.End() {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if (info.Uses[id] == v) && (id.Pos() < fn.Pos() || id.Pos() > fn.End()) {
				found = true
			}
		}
		return true
	})
	return found
}
