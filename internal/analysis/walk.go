package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The analyzer recognizes the Task/Future API through go/types, so it
// works identically on code written against the public sforder package
// (whose Task/Future are aliases) and against internal/sched directly.
// The classification helpers are exported: internal/instr drives the
// same machinery to rewrite programs rather than report on them.

// sfPackage reports whether path is the sforder module's API surface.
func sfPackage(path string) bool {
	return path == "sforder" || path == "sforder/internal/sched" ||
		strings.HasSuffix(path, "/sforder") || strings.HasSuffix(path, "sforder/internal/sched")
}

// namedSF unwraps pointers and reports whether t is the named sforder
// type with the given name (Task or Future).
func namedSF(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && sfPackage(obj.Pkg().Path())
}

// IsTaskType reports whether t is sforder.Task / sched.Task (or a
// pointer to it).
func IsTaskType(t types.Type) bool { return t != nil && namedSF(t, "Task") }

// IsFutureType reports whether t is sforder.Future / sched.Future (or a
// pointer to it).
func IsFutureType(t types.Type) bool { return t != nil && namedSF(t, "Future") }

// CallKind classifies a call's relation to the structured-futures API.
type CallKind int

const (
	CallNone CallKind = iota
	CallGet           // Task.Get or sforder.GetTyped
	CallCreate
	CallSpawn
	CallSync
	CallRead
	CallWrite
)

// Advances reports whether the call steps its task onto a new strand:
// every access made after it belongs to a different dag node than
// accesses made before it. Read/Write annotations do not advance.
func (k CallKind) Advances() bool {
	return k == CallGet || k == CallCreate || k == CallSpawn || k == CallSync
}

// SFCall describes one classified call.
type SFCall struct {
	Kind CallKind
	// Recv is the Task-typed receiver expression (nil for GetTyped,
	// whose task is the first argument).
	Recv ast.Expr
	// Handle is the future-handle argument for CallGet, nil otherwise.
	Handle ast.Expr
	// Fn is the closure argument for CallCreate/CallSpawn when it is a
	// literal, nil otherwise.
	Fn *ast.FuncLit
}

// ClassifyCall resolves a call expression against the Task API.
func ClassifyCall(info *types.Info, call *ast.CallExpr) (SFCall, bool) {
	// sforder.GetTyped[T](t, h): a generic package function.
	fun := call.Fun
	if idx, ok := fun.(*ast.IndexExpr); ok {
		fun = idx.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if obj.Name() == "GetTyped" && obj.Pkg() != nil && sfPackage(obj.Pkg().Path()) && len(call.Args) == 2 {
				return SFCall{Kind: CallGet, Handle: call.Args[1]}, true
			}
			// Method call on a Task receiver.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && IsTaskType(sig.Recv().Type()) {
				c := SFCall{Recv: sel.X}
				switch obj.Name() {
				case "Get":
					c.Kind = CallGet
					if len(call.Args) == 1 {
						c.Handle = call.Args[0]
					}
				case "Create":
					c.Kind = CallCreate
				case "Spawn":
					c.Kind = CallSpawn
				case "Sync":
					c.Kind = CallSync
				case "Read":
					c.Kind = CallRead
				case "Write":
					c.Kind = CallWrite
				default:
					return SFCall{}, false
				}
				if c.Kind == CallCreate || c.Kind == CallSpawn {
					if len(call.Args) == 1 {
						if lit, ok := call.Args[0].(*ast.FuncLit); ok {
							c.Fn = lit
						}
					}
				}
				return c, true
			}
		}
	}
	return SFCall{}, false
}

// handleVar resolves e to the local/parameter variable it names, when e
// is a plain (possibly parenthesized) identifier of Future type.
// Index expressions, selectors, and function results return nil: the
// flow-sensitive passes only track named handles.
func handleVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !IsFutureType(v.Type()) {
		return nil
	}
	return v
}

// funcScope is one analyzed function body: a declaration or a literal.
type funcScope struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
	name string
}

// functionsOf enumerates every function body in the file, literals
// included, outermost first.
func functionsOf(f *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcScope{decl: fn, body: fn.Body, name: fn.Name.Name})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{lit: fn, body: fn.Body, name: "func literal"})
		}
		return true
	})
	return out
}

// InspectShallow walks the subtree rooted at n but does not descend
// into function literals (their bodies are separate analysis scopes).
func InspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return visit(m)
	})
}

// writeTarget unwraps an assignment left-hand side to the base
// identifier being (directly or through an index/selector/deref chain)
// written.
func writeTarget(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its variable object.
func objOf(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// TaskParamOf returns fn's Task-typed parameter variable, if any. The
// instrumenter uses it to pick the receiver for injected annotations.
func TaskParamOf(info *types.Info, fn *ast.FuncLit) *types.Var {
	sig, ok := info.Types[fn].Type.(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if v := sig.Params().At(i); IsTaskType(v.Type()) {
			return v
		}
	}
	return nil
}
