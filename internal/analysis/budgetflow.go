package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// budgetflow: every energy debit in the executor and the simulator
// must flow through a named accounting entry point. The exec/sim
// equivalence tests compare ledgers counter by counter; an inline
// `res.Ledger.Collection += ...` scattered in a planner loop is
// exactly the kind of write that drifts between the two and corrupts
// every figure. The rule is simple and interprocedural only in the
// trivial sense: writes to energy.Ledger fields are allowed solely
// inside the per-package charge helpers listed here (closures within
// them included); everything else is flagged. Replacing a whole
// Ledger value (res.Ledger = energy.Ledger{}) is a reset, not a
// debit, and stays legal.

// budgetEntryPoints lists the sanctioned accounting helpers by
// function name, keyed by import-path suffix so fixture twins use the
// same table.
var budgetEntryPoints = map[string][]string{
	"internal/exec": {"chargeMsg", "chargeReply", "chargeRequest", "chargeTrigger", "chargeValue"},
	"internal/sim":  {"chargeDelivery", "chargeInstall", "chargeLoss", "chargeTrigger"},
}

// ledgerType reports whether t (through pointers) is energy.Ledger.
func ledgerType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ledger" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/energy")
}

func budgetScope(path string) (string, bool) {
	for suffix := range budgetEntryPoints {
		if pathHasSuffix(path, suffix) {
			return suffix, true
		}
	}
	return "", false
}

// newBudgetflowCheck builds the budgetflow analyzer.
func newBudgetflowCheck() *Check {
	return &Check{
		Name: "budgetflow",
		Doc:  "energy.Ledger debits in exec/sim must go through the charge* accounting helpers",
		Applies: func(path string) bool {
			_, ok := budgetScope(path)
			return ok
		},
		Run: func(pass *Pass) {
			suffix, ok := budgetScope(pass.Pkg.Path)
			if !ok {
				return
			}
			allowed := make(map[string]bool)
			for _, name := range budgetEntryPoints[suffix] {
				allowed[name] = true
			}
			names := strings.Join(sortedNames(allowed), ", ")

			check := func(lhs ast.Expr) {
				for _, pre := range prefixChain(lhs) {
					t := pass.Pkg.Info.TypeOf(pre)
					if t == nil || !ledgerType(t) {
						continue
					}
					field := "a field"
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						field = sel.Sel.Name
					}
					pass.Reportf(lhs.Pos(), "energy.Ledger.%s written outside the accounting helpers (%s)", field, names)
					return
				}
			}
			for _, file := range pass.Pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || allowed[fd.Name.Name] {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.AssignStmt:
							for _, lhs := range n.Lhs {
								check(lhs)
							}
						case *ast.IncDecStmt:
							check(n.X)
						}
						return true
					})
				}
			}
		},
	}
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
