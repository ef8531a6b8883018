package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// The fixture/internal/edge package collects the call-graph shapes
// planfreeze, budgetflow and goleak lean on: method expressions under
// go and method values. These tests pin the substrate behavior
// directly; the golden test separately proves the package is
// finding-free.

func edgePkg(t *testing.T) *Package {
	t.Helper()
	fixtures(t)
	pkg := fixtureProgram().Package("fixture/internal/edge")
	if pkg == nil {
		t.Fatal("fixture/internal/edge did not load")
	}
	return pkg
}

// edgeDecl finds a declared function by name in the edge package.
func edgeDecl(t *testing.T, pkg *Package, name string) (*ast.FuncDecl, *types.Func) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				return fd, fn
			}
		}
	}
	t.Fatalf("function %s not found in %s", name, pkg.Path)
	return nil, nil
}

// TestCallGraphMethodExpression proves `go (*Runner).Run(r)` resolves
// to a call-graph edge Launch -> Run, the shape goleak uses to find the
// goroutine body behind a method-expression go statement.
func TestCallGraphMethodExpression(t *testing.T) {
	pkg := edgePkg(t)
	cg := fixtureProgram().CallGraph()
	_, run := edgeDecl(t, pkg, "Run")
	if run == nil {
		t.Fatal("no types.Func for Run")
	}
	found := false
	for _, site := range cg.Sites {
		if site.Callee == run && site.Caller != nil && site.Caller.Name() == "Launch" {
			found = true
			if cg.Decl(run) == nil || cg.DeclPkg(run) != pkg {
				t.Errorf("Decl/DeclPkg of Run not resolved to the edge package")
			}
		}
	}
	if !found {
		t.Error("method-expression call (*Runner).Run(r) produced no Launch -> Run edge")
	}
}

// TestCallGraphMethodValueIsDynamic proves a method value handed around
// as a func() (stop := r.Stop) does not fabricate a call edge: only the
// direct close-over-channel call inside Stop itself appears.
func TestCallGraphMethodValueIsDynamic(t *testing.T) {
	pkg := edgePkg(t)
	cg := fixtureProgram().CallGraph()
	_, stop := edgeDecl(t, pkg, "Stop")
	if stop == nil {
		t.Fatal("no types.Func for Stop")
	}
	for _, site := range cg.Sites {
		if site.Callee == stop {
			t.Errorf("unexpected call edge to Stop from %v: method values are dynamic", site.Caller)
		}
	}
}

// TestGoleakMethodExpressionAccepted pins the end-to-end behavior: the
// goroutine started through the method expression terminates via the
// done-channel receive in Run's body, so goleak stays quiet on the
// whole edge package.
func TestGoleakMethodExpressionAccepted(t *testing.T) {
	pkg := edgePkg(t)
	var diags []Diagnostic
	check := newGoleakCheck()
	pass := &Pass{Check: check, Pkg: pkg, Prog: fixtureProgram(),
		report: func(d Diagnostic) { diags = append(diags, d) }}
	check.Run(pass)
	for _, d := range diags {
		t.Errorf("unexpected goleak finding in edge package: %s", d)
	}
}
