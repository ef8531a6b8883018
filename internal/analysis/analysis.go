// Package analysis is a zero-dependency static-analysis engine for
// this repository, built on the standard library's go/ast, go/parser,
// and go/types only. It enforces project invariants the compiler
// cannot see: planners and the simulator must be deterministic
// (injected clocks and RNGs, no map-iteration-order-dependent output),
// internal/obs instrumentation must stay nil-receiver-safe, the
// LP/stats numeric code must never compare floats with raw == or !=,
// and library code must not discard error returns.
//
// The engine loads and type-checks every package under a module root
// (see LoadDir), runs a suite of checks over each (see Suite and Run),
// and reports diagnostics with file:line:column positions. Individual
// findings can be silenced in source with a directive comment:
//
//	//lint:ignore <check> <reason>
//
// placed either at the end of the offending line or on the line
// directly above it. Directives without both a check name and a
// non-empty reason are themselves diagnostics (the "suppress" check).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Check, d.Message)
}

// Package is one loaded, type-checked package plus the side tables the
// checks need.
type Package struct {
	Path  string // import path ("prospector/internal/lp")
	Dir   string // directory the files were parsed from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// suppressions maps filename -> line -> directives covering that
	// line; malformed holds directives the suppress audit flags.
	suppressions map[string]map[int][]suppression
	malformed    []suppression
}

// Check is one analyzer in the suite.
type Check struct {
	// Name identifies the check in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Applies reports whether the check runs over the package with the
	// given import path. A nil Applies runs everywhere.
	Applies func(path string) bool
	// Run inspects one package and reports findings via the pass.
	Run func(*Pass)
}

// Pass carries one (check, package) execution. Prog exposes the
// whole-module Program so interprocedural checks can reach the call
// graph and the shared frozen-struct summaries; per-package checks
// ignore it.
type Pass struct {
	Check *Check
	Pkg   *Package
	Prog  *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Check:    p.Check.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// isFloat reports whether t is (or has underlying) float32/float64 or
// an untyped float constant type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// isInteger reports whether t is an integer type.
func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsInteger != 0
}
