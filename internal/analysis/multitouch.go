package analysis

// SF001 multi-touch: a Future handle that can reach more than one Get
// along some intra-procedural control-flow path violates single-touch
// (paper §2). The pass abstractly interprets each function body,
// tracking per-handle get counts along paths: sequences accumulate,
// branches merge by maximum (if/else arms are exclusive, but a branch
// get followed by a fall-through get lies on one path), reassignment of
// the handle variable resets the count (a fresh future), and a get of a
// loop-invariant handle inside a loop body counts as multiple (two
// iterations form one path). Branches that end in return/break/continue
// do not leak their counts past the join point, so the common
// "get-and-return early" shape is not flagged. Only plain identifier
// handles are tracked — gets through index or selector expressions are
// skipped rather than guessed at (no false positives on futs[i]
// patterns whose index arithmetic the analysis cannot see).

import (
	"go/ast"
	"go/token"
	"go/types"
)

type getInfo struct {
	count int // 0, 1, 2 (saturating)
	first token.Pos
}

type mtState map[*types.Var]getInfo

func (s mtState) clone() mtState {
	out := make(mtState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func mergeMax(a, b mtState) mtState {
	out := a.clone()
	for v, g := range b {
		if cur, ok := out[v]; !ok || g.count > cur.count {
			out[v] = g
		}
	}
	return out
}

type mtChecker struct {
	p        *Package
	report   reporter
	reported map[*types.Var]bool
}

func checkMultiTouch(p *Package, f *ast.File, report reporter) {
	for _, fs := range functionsOf(f) {
		c := &mtChecker{p: p, report: report, reported: map[*types.Var]bool{}}
		c.block(fs.body.List, mtState{})
	}
}

func (c *mtChecker) flag(v *types.Var, pos token.Pos, prior token.Pos, why string) {
	if c.reported[v] {
		return
	}
	c.reported[v] = true
	prev := ""
	if prior.IsValid() {
		prev = "; previous get at " + c.p.Fset.Position(prior).String()
	}
	c.report(pos, "SF001", "future handle %q may be touched by Get more than once%s%s", v.Name(), why, prev)
}

// expr counts gets inside e (not descending into function literals) and
// returns the updated state.
func (c *mtChecker) expr(e ast.Expr, s mtState) mtState {
	if e == nil {
		return s
	}
	s = s.clone()
	InspectShallow(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sc, ok := ClassifyCall(c.p.Info, call)
		if !ok || sc.Kind != CallGet || sc.Handle == nil {
			return true
		}
		v := handleVar(c.p.Info, sc.Handle)
		if v == nil {
			return true
		}
		g := s[v]
		if g.count >= 1 {
			c.flag(v, call.Pos(), g.first, "")
		}
		if g.count == 0 {
			g.first = call.Pos()
		}
		if g.count < 2 {
			g.count++
		}
		s[v] = g
		return true
	})
	return s
}

// kill removes a reassigned handle variable from the state.
func (c *mtChecker) kill(s mtState, id *ast.Ident) mtState {
	v := objOf(c.p.Info, id)
	if v == nil || !IsFutureType(v.Type()) {
		return s
	}
	if _, ok := s[v]; !ok {
		return s
	}
	s = s.clone()
	delete(s, v)
	return s
}

// block interprets a statement sequence; the bool result reports
// whether the path terminates inside it (return/branch).
func (c *mtChecker) block(stmts []ast.Stmt, s mtState) (mtState, bool) {
	for _, st := range stmts {
		var term bool
		s, term = c.stmt(st, s)
		if term {
			return s, true
		}
	}
	return s, false
}

func (c *mtChecker) stmt(st ast.Stmt, s mtState) (mtState, bool) {
	switch x := st.(type) {
	case nil:
		return s, false
	case *ast.ExprStmt:
		return c.expr(x.X, s), false
	case *ast.SendStmt:
		return c.expr(x.Value, c.expr(x.Chan, s)), false
	case *ast.IncDecStmt:
		return c.expr(x.X, s), false
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			s = c.expr(r, s)
		}
		for _, lh := range x.Lhs {
			if id, ok := ast.Unparen(lh).(*ast.Ident); ok {
				s = c.kill(s, id)
			} else {
				s = c.expr(lh, s) // gets inside index expressions on the LHS
			}
		}
		return s, false
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						s = c.expr(val, s)
					}
					for _, name := range vs.Names {
						s = c.kill(s, name)
					}
				}
			}
		}
		return s, false
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			s = c.expr(r, s)
		}
		return s, true
	case *ast.BranchStmt:
		// break/continue/goto: end this straight-line path; the counts
		// do not flow past the join.
		return s, true
	case *ast.BlockStmt:
		return c.block(x.List, s)
	case *ast.LabeledStmt:
		return c.stmt(x.Stmt, s)
	case *ast.DeferStmt:
		return c.expr(x.Call, s), false
	case *ast.GoStmt:
		return c.expr(x.Call, s), false
	case *ast.IfStmt:
		if x.Init != nil {
			s, _ = c.stmt(x.Init, s)
		}
		s = c.expr(x.Cond, s)
		thenS, thenTerm := c.block(x.Body.List, s)
		elseS, elseTerm := s, false
		if x.Else != nil {
			elseS, elseTerm = c.stmt(x.Else, s)
		}
		switch {
		case thenTerm && elseTerm:
			return s, true
		case thenTerm:
			return elseS, false
		case elseTerm:
			return thenS, false
		default:
			return mergeMax(thenS, elseS), false
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s, _ = c.stmt(x.Init, s)
		}
		if x.Cond != nil {
			s = c.expr(x.Cond, s)
		}
		stmts := x.Body.List
		if x.Post != nil {
			stmts = append(append([]ast.Stmt{}, stmts...), x.Post)
		}
		return c.loopBody(x.Body, stmts, s, nil), false
	case *ast.RangeStmt:
		s = c.expr(x.X, s)
		var rebound []*types.Var
		for _, e := range []ast.Expr{x.Key, x.Value} {
			if id, ok := e.(*ast.Ident); ok && e != nil {
				s = c.kill(s, id)
				if v := objOf(c.p.Info, id); v != nil {
					rebound = append(rebound, v)
				}
			}
		}
		return c.loopBody(x.Body, x.Body.List, s, rebound), false
	case *ast.SwitchStmt:
		if x.Init != nil {
			s, _ = c.stmt(x.Init, s)
		}
		s = c.expr(x.Tag, s)
		return c.branches(x.Body.List, s), false
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s, _ = c.stmt(x.Init, s)
		}
		if x.Assign != nil {
			s, _ = c.stmt(x.Assign, s)
		}
		return c.branches(x.Body.List, s), false
	case *ast.SelectStmt:
		return c.branches(x.Body.List, s), false
	default:
		return s, false
	}
}

// branches merges mutually exclusive case/comm clauses by maximum,
// excluding clauses that terminate. Without a default clause the
// pre-state is one of the merged outcomes.
func (c *mtChecker) branches(clauses []ast.Stmt, s mtState) mtState {
	out := s
	hasDefault := false
	for _, cl := range clauses {
		var guards []ast.Expr
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			guards, body = cc.List, cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cc.Body
			if cc.Comm == nil {
				hasDefault = true
			}
			s2 := s
			if cc.Comm != nil {
				s2, _ = c.stmt(cc.Comm, s2)
			}
			if bs, term := c.block(body, s2); !term {
				out = mergeMax(out, bs)
			}
			continue
		default:
			continue
		}
		s2 := s
		for _, g := range guards {
			s2 = c.expr(g, s2)
		}
		if bs, term := c.block(body, s2); !term {
			out = mergeMax(out, bs)
		}
	}
	_ = hasDefault // pre-state s is always in `out`: max merge is conservative either way
	return out
}

// loopBody interprets one loop body and applies the two-iterations
// rule: a handle gotten in the body that is not rebound anywhere in the
// body is gotten again on the next iteration. Bodies that always
// terminate (unconditional break/return at the end) run at most once
// and are exempt.
func (c *mtChecker) loopBody(bodyNode ast.Node, stmts []ast.Stmt, s mtState, rebound []*types.Var) mtState {
	sOut, term := c.block(stmts, s)
	if !term {
		assigned := assignedFutureVars(c.p.Info, bodyNode)
		for _, v := range rebound {
			assigned[v] = true
		}
		for v, g := range sOut {
			if g.count > s[v].count && !assigned[v] {
				c.flag(v, g.first, token.NoPos, " (gotten on every iteration of the enclosing loop)")
			}
		}
	}
	return mergeMax(s, sOut)
}

// assignedFutureVars collects Future-typed variables assigned anywhere
// inside n, nested closures included (any rebinding makes the
// two-iterations rule unsound, so it is disabled for that variable).
func assignedFutureVars(info *types.Info, n ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v := objOf(info, id); v != nil && IsFutureType(v.Type()) {
				out[v] = true
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				mark(lh)
			}
		case *ast.RangeStmt:
			mark(x.Key)
			mark(x.Value)
		case *ast.ValueSpec:
			for _, name := range x.Names {
				mark(name)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X) // address taken: assume it may be rebound
			}
		}
		return true
	})
	return out
}
