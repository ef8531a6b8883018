package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Suite returns the project's full analyzer suite: the per-package
// checks (determinism, obsnilsafe, floatcmp, errchecklite), the
// interprocedural checks (planfreeze, budgetflow), the goroutine
// termination check (goleak), plus the suppress audit (which knows the
// other checks' names so it can flag typos in directives).
func Suite() []*Check {
	checks := []*Check{
		newDeterminismCheck(),
		newObsNilsafeCheck(),
		newFloatcmpCheck(),
		newErrcheckCheck(),
		newPlanfreezeCheck(),
		newBudgetflowCheck(),
		newGoleakCheck(),
	}
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name
	}
	return append(checks, newSuppressCheck(names))
}

// SelectChecks filters the suite by name; an empty list keeps all.
func SelectChecks(checks []*Check, names []string) ([]*Check, error) {
	if len(names) == 0 {
		return checks, nil
	}
	byName := make(map[string]*Check, len(checks))
	for _, c := range checks {
		byName[c.Name] = c
	}
	var out []*Check
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			known := make([]string, len(checks))
			for i, kc := range checks {
				known[i] = kc.Name
			}
			sort.Strings(known)
			return nil, fmt.Errorf("analysis: unknown check %q (known: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// Run executes every applicable check over every package and returns
// the surviving (unsuppressed) diagnostics sorted by position. The
// checks share one Program, so the interprocedural structures are
// built once per Run.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, check := range checks {
			if check.Applies != nil && !check.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Check: check,
				Pkg:   pkg,
				Prog:  prog,
				report: func(d Diagnostic) {
					if !pkg.suppressed(d) {
						diags = append(diags, d)
					}
				},
			}
			check.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// WriteText prints one "file:line:col: [check] message" line per
// diagnostic.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}
