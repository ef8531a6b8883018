package analysis

import "strings"

// Program is the whole-module state shared by every Pass of one Run.
// The per-package checks are AST walks and ignore it; planfreeze,
// budgetflow and goleak need structures that span package boundaries —
// the call graph and the frozen-struct mutator sets — which are built
// here once, lazily, and shared.
type Program struct {
	Pkgs   []*Package
	byPath map[string]*Package

	cg     *CallGraph
	frozen *frozenWorld
}

// NewProgram wraps the loaded packages. pkgs should be LoadDir output
// (sorted by import path) so lazily built structures are
// deterministic.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, byPath: make(map[string]*Package, len(pkgs))}
	for _, p := range pkgs {
		prog.byPath[p.Path] = p
	}
	return prog
}

// Package returns the loaded package with the given import path.
func (prog *Program) Package(path string) *Package { return prog.byPath[path] }

// CallGraph returns the module call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog.Pkgs)
	}
	return prog.cg
}

// frozenWorld returns the plan-immutability state, building it on
// first use.
func (prog *Program) frozenWorld() *frozenWorld {
	if prog.frozen == nil {
		prog.frozen = buildFrozenWorld(prog)
	}
	return prog.frozen
}

// pathHasSuffix reports whether the import path ends in suffix at a
// path-segment boundary, so configuration written against the real
// tree ("internal/plan") also matches the fixture module
// ("fixture/internal/plan").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
