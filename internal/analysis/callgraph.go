package analysis

import (
	"go/ast"
	"go/types"
)

// A static call graph over the loaded module. Only direct calls are
// resolved — plain function calls, package-qualified calls, and method
// calls on concrete receivers. Calls through interface values or
// stored function values are not edges; the checks built on top
// (planfreeze's mutator propagation) are deliberately may-analysis
// over what the resolver sees, which matches this codebase: planners
// and executors call each other directly.

// CallSite is one resolved call: Caller (the enclosing declared
// function; calls inside function literals are attributed to the
// declaration they appear in) invoking Callee at Call.
type CallSite struct {
	Caller *types.Func
	Callee *types.Func
	Call   *ast.CallExpr
	Pkg    *Package // package containing the call expression
}

// CallGraph holds the call sites and each declared function's body.
type CallGraph struct {
	Sites   []CallSite // deterministic: package order, file order, position order
	decls   map[*types.Func]*ast.FuncDecl
	declPkg map[*types.Func]*Package
}

// Decl returns the AST declaration of fn, or nil when fn is not
// declared in the loaded module (stdlib, interface methods).
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// DeclPkg returns the package declaring fn, or nil when external.
func (g *CallGraph) DeclPkg(fn *types.Func) *Package { return g.declPkg[fn] }

// buildCallGraph resolves every direct call in the module. pkgs must
// be in deterministic order (LoadDir sorts by import path).
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		declPkg: make(map[*types.Func]*Package),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[caller] = fd
				g.declPkg[caller] = pkg
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := staticCallee(pkg.Info, call)
					if callee == nil {
						return true
					}
					g.Sites = append(g.Sites, CallSite{Caller: caller, Callee: callee, Call: call, Pkg: pkg})
					return true
				})
			}
		}
	}
	return g
}

// staticCallee resolves the called function of a call expression, or
// nil for dynamic calls (function values, conversions, builtins).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// receiverExpr returns the receiver expression of a method call, or
// nil for ordinary function calls.
func receiverExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && (s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr) {
		return sel.X
	}
	return nil
}
