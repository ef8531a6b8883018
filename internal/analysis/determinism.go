package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the package-path suffixes whose behavior must
// be replayable: the planners, the executor, the simulator, the LP
// solver, the experiment drivers (same seed, same figure), and the
// trace toolchain (same trace bytes in, same analysis out). Clocks and
// RNGs reach them by injection only.
var deterministicPkgs = []string{
	"/internal/sim",
	"/internal/exec",
	"/internal/core",
	"/internal/lp",
	"/internal/experiments",
	"/internal/serve",
	"/internal/traceanalysis",
	"/internal/ledger",
	"/internal/regress",
	"/cmd/tracetool",
	"/cmd/regress",
}

// bannedCalls maps package path -> function name -> the reason it
// breaks determinism. Only package-level functions are banned;
// methods on an injected *rand.Rand or a caller-supplied clock are the
// sanctioned replacements.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read; inject a clock (e.g. an Options.Now func)",
		"Since": "wall-clock read; inject a clock (e.g. an Options.Now func)",
		"Until": "wall-clock read; inject a clock (e.g. an Options.Now func)",
		"Sleep": "wall-clock dependence; drive time from the simulator",
	},
	"math/rand":    globalRandFuncs,
	"math/rand/v2": globalRandFuncs,
}

var globalRandFuncs = map[string]string{
	"Int": randAdvice, "Intn": randAdvice, "Int31": randAdvice,
	"Int31n": randAdvice, "Int63": randAdvice, "Int63n": randAdvice,
	"Uint32": randAdvice, "Uint64": randAdvice, "Float32": randAdvice,
	"Float64": randAdvice, "NormFloat64": randAdvice, "ExpFloat64": randAdvice,
	"Perm": randAdvice, "Shuffle": randAdvice, "Seed": randAdvice,
	"Read": randAdvice, "N": randAdvice,
}

const randAdvice = "global RNG; thread a seeded *rand.Rand through instead"

func newDeterminismCheck() *Check {
	return &Check{
		Name: "determinism",
		Doc:  "no wall clocks, global RNGs, or map-iteration-order-dependent output in planner/executor/simulator/LP code",
		Applies: func(path string) bool {
			for _, suf := range deterministicPkgs {
				if strings.HasSuffix(path, suf) {
					return true
				}
			}
			return false
		},
		Run: runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	// Banned package-level functions, resolved through the type
	// checker so import aliasing cannot hide them.
	for ident, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue
		}
		byName := bannedCalls[fn.Pkg().Path()]
		if why, banned := byName[fn.Name()]; banned {
			pass.Reportf(ident.Pos(), "%s.%s: %s", fn.Pkg().Name(), fn.Name(), why)
		}
	}
	// Map-range loops whose bodies can leak iteration order.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				w := walker{pass: pass}
				if w.orderSafeStmts(rs.Body.List) && w.sortedLater(fn, rs) {
					return true
				}
				pass.Reportf(rs.Pos(), "range over map can leak iteration order into output; collect the keys and sort them first")
				return true
			})
		}
	}
}

// walker analyzes one map-range body. collected accumulates slice
// variables that the body appends to (the collect half of the
// collect-then-sort idiom); they must be sorted after the loop.
type walker struct {
	pass      *Pass
	collected []*ast.Ident
}

// orderSafeStmts reports whether executing stmts once per map entry is
// insensitive to entry order. Allowed: writes keyed into maps,
// commutative integer accumulation, call-free guards, delete(), and
// appends into a slice that sortedLater verifies is sorted afterwards.
// Anything else — function calls, channel ops, float accumulation
// (non-associative), plain assignments — is order-sensitive.
func (w *walker) orderSafeStmts(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if !w.orderSafeStmt(st) {
			return false
		}
	}
	return true
}

func (w *walker) orderSafeStmt(st ast.Stmt) bool {
	pass := w.pass
	switch s := st.(type) {
	case *ast.AssignStmt:
		return w.orderSafeAssign(s)
	case *ast.IncDecStmt:
		return isInteger(pass.TypeOf(s.X)) && callFree(pass, s.X)
	case *ast.IfStmt:
		if s.Init != nil && !w.orderSafeStmt(s.Init) {
			return false
		}
		if !callFree(pass, s.Cond) {
			return false
		}
		if !w.orderSafeStmts(s.Body.List) {
			return false
		}
		if s.Else != nil {
			return w.orderSafeStmt(s.Else)
		}
		return true
	case *ast.BlockStmt:
		return w.orderSafeStmts(s.List)
	case *ast.ExprStmt:
		// delete(m, k) is the one order-insensitive call statement.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return callFreeAll(pass, call.Args)
				}
			}
		}
		return false
	case *ast.BranchStmt:
		return s.Tok.String() == "continue" || s.Tok.String() == "break"
	default:
		return false
	}
}

// orderSafeAssign allows key-addressed map writes (last-write-wins per
// key is order-free), integer accumulation with commutative operators,
// short declarations of loop-local temporaries, and the collect half
// of collect-then-sort (`keys = append(keys, k)`).
func (w *walker) orderSafeAssign(a *ast.AssignStmt) bool {
	pass := w.pass
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 && a.Tok.String() == "=" {
		if target, ok := a.Lhs[0].(*ast.Ident); ok {
			if call, ok := a.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) &&
				len(call.Args) >= 1 && isIdentNamed(call.Args[0], target.Name) &&
				callFreeAll(pass, call.Args[1:]) {
				w.collected = append(w.collected, target)
				return true
			}
		}
	}
	if !callFreeAll(pass, a.Rhs) {
		return false
	}
	switch a.Tok.String() {
	case ":=":
		return true // loop-local temp; any escape happens in a later statement
	case "=":
		for _, lhs := range a.Lhs {
			if !isMapIndexOrBlank(pass, lhs) {
				return false
			}
		}
		return true
	case "+=", "-=", "*=", "|=", "&=", "^=":
		for _, lhs := range a.Lhs {
			if !isInteger(pass.TypeOf(lhs)) && !isMapIndexOrBlank(pass, lhs) {
				return false
			}
			if !callFree(pass, lhs) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// sortedLater verifies that every slice the loop collected into is
// passed to a sort or slices call after the loop ends, completing the
// collect-then-sort idiom.
func (w *walker) sortedLater(fn *ast.FuncDecl, rs *ast.RangeStmt) bool {
	for _, target := range w.collected {
		sorted := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < rs.End() {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := w.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				mentioned := false
				ast.Inspect(arg, func(m ast.Node) bool {
					if isIdentNamed(m, target.Name) {
						mentioned = true
						return false
					}
					return true
				})
				if mentioned {
					sorted = true
					return false
				}
			}
			return true
		})
		if !sorted {
			return false
		}
	}
	return true
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isIdentNamed(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

func isMapIndexOrBlank(pass *Pass, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap && callFree(pass, ix.X) && callFree(pass, ix.Index)
}

// callFree reports whether e contains no function or method calls
// other than type conversions and pure builtins (len, cap, min, max).
func callFree(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	safe := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, found := pass.Pkg.Info.Types[call.Fun]; found && tv.IsType() {
			return true // conversion
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max", "abs":
					return true
				}
			}
		}
		safe = false
		return false
	})
	return safe
}

func callFreeAll(pass *Pass, es []ast.Expr) bool {
	for _, e := range es {
		if !callFree(pass, e) {
			return false
		}
	}
	return true
}
