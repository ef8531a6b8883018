package analysis

import (
	"go/ast"
	"strings"
)

// newObsNilsafeCheck enforces the internal/obs contract: a nil handle
// (registry, counter, tracer, ...) is a valid "disabled" value, so
// every exported method with a pointer receiver must either begin with
// a nil-receiver guard or delegate entirely to another method on the
// same receiver (which is then checked itself). Dereferencing the
// receiver before the guard defeats the contract at every call site.
func newObsNilsafeCheck() *Check {
	return &Check{
		Name: "obsnilsafe",
		Doc:  "exported pointer-receiver methods in internal/obs must begin with a nil-receiver guard",
		Applies: func(path string) bool {
			return strings.HasSuffix(path, "/internal/obs")
		},
		Run: runObsNilsafe,
	}
}

func runObsNilsafe(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recv := fn.Recv.List[0]
			if _, isPtr := recv.Type.(*ast.StarExpr); !isPtr {
				continue // value receivers cannot be nil
			}
			if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
				continue // unnamed receiver: the body cannot dereference it
			}
			name := recv.Names[0].Name
			if len(fn.Body.List) == 0 {
				continue
			}
			if hasNilGuard(fn.Body.List[0], name) || isPureDelegation(fn.Body.List, name) {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"exported method %s must begin with `if %s == nil` (nil %s is a valid disabled handle)",
				fn.Name.Name, name, name)
		}
	}
}

// hasNilGuard matches `if recv == nil { ... }` as the statement, with
// the receiver on either side of ==. The guarded branch must defuse
// the nil: end in a return, or reassign the receiver to something
// non-nil.
func hasNilGuard(st ast.Stmt, recv string) bool {
	ifst, ok := st.(*ast.IfStmt)
	if !ok || ifst.Init != nil {
		return false
	}
	cmp, ok := ifst.Cond.(*ast.BinaryExpr)
	if !ok || cmp.Op.String() != "==" {
		return false
	}
	if !(isIdent(cmp.X, recv) && isIdent(cmp.Y, "nil") ||
		isIdent(cmp.X, "nil") && isIdent(cmp.Y, recv)) {
		return false
	}
	n := len(ifst.Body.List)
	if n == 0 {
		return false
	}
	switch last := ifst.Body.List[n-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		return len(last.Lhs) == 1 && isIdent(last.Lhs[0], recv) &&
			len(last.Rhs) == 1 && !isIdent(last.Rhs[0], "nil")
	default:
		return false
	}
}

// isPureDelegation matches a body that is exactly one call rooted at
// the receiver, e.g. `c.Add(1)` or `return r.Snapshot().WritePrometheus(w)`.
// Calling a method on a nil pointer is legal; the callee carries the
// guard and is verified on its own.
func isPureDelegation(body []ast.Stmt, recv string) bool {
	if len(body) != 1 {
		return false
	}
	var call ast.Expr
	switch s := body[0].(type) {
	case *ast.ExprStmt:
		call = s.X
	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return false
		}
		call = s.Results[0]
	default:
		return false
	}
	c, ok := call.(*ast.CallExpr)
	if !ok {
		return false
	}
	return rootedAt(c.Fun, recv)
}

// rootedAt reports whether a selector/call chain bottoms out at the
// identifier name (r.Snapshot().WritePrometheus -> r).
func rootedAt(e ast.Expr, name string) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.Ident:
			return x.Name == name
		default:
			return false
		}
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
