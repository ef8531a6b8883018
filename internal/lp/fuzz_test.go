package lp

import (
	"math"
	"testing"
)

// fuzzModel decodes data into a small bounded LP: 1-6 variables with
// finite bounds (some straddling zero), 0-6 rows of mixed sense with
// mixed-sign right-hand sides, and half-integer coefficients, so both
// crash slacks and artificials (and the phase-1 path) are exercised.
// It returns nil when a row decodes to something AddConstr rejects.
func fuzzModel(data []byte) *Model {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nv := 1 + next()%6
	nr := next() % 7
	m := NewModel()
	if next()%2 == 1 {
		m.Maximize()
	}
	for v := 0; v < nv; v++ {
		lo := float64(next()%5 - 2)
		hi := lo + float64(next()%5)
		m.MustVar(lo, hi, float64(next()%9-4), "")
	}
	for r := 0; r < nr; r++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if c := next()%7 - 3; c != 0 {
				terms = append(terms, Term{Var: VarID(v), Coef: float64(c) / 2})
			}
		}
		sense := Sense(next() % 3)
		if err := m.AddConstr(terms, sense, float64(next()%17-8)/2); err != nil {
			return nil
		}
	}
	return m
}

// FuzzColdSolve checks cold solves on small bounded LPs: every optimum
// carries a KKT certificate, and the default refactorization schedule
// agrees in status and objective with refactorizing after every pivot.
func FuzzColdSolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(data)
		if m == nil {
			return
		}
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m.Solve(Options{RefactorEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != ref.Status {
			t.Fatalf("status %v, with RefactorEvery 1 %v", sol.Status, ref.Status)
		}
		if sol.Status != Optimal {
			return
		}
		if err := CheckOptimal(m, sol, 1e-6); err != nil {
			t.Fatalf("default schedule: %v", err)
		}
		if err := CheckOptimal(m, ref, 1e-6); err != nil {
			t.Fatalf("RefactorEvery 1: %v", err)
		}
		if math.Abs(sol.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("objective %g, with RefactorEvery 1 %g", sol.Objective, ref.Objective)
		}
	})
}
