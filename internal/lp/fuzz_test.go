package lp

import (
	"fmt"
	"math"
	"math/rand"
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

// FuzzWarmEdits drives one warm chain through a random sequence of
// edits decoded from data, a base model as in FuzzColdSolve followed
// by steps of SetRHS, SetObjCoef, SetVarBound, AddVar (with terms in
// existing rows), AddConstr, AddTerm and RemoveVars. After every step
// the warm re-solve must agree with a cold-direct solve in status and
// objective, every optimum must carry a KKT certificate, ranging one
// row's right-hand side around each warm optimum must pass
// checkRangeRHS, and the hypersparse Ftran and Btran on the warm
// solve's factors must equal the dense loops bit for bit
// (checkHyperMatchesDense).
func FuzzWarmEdits(f *testing.F) {
	f.Fuzz(checkWarmEdits)
}

func checkWarmEdits(t *testing.T, data []byte) {
	m, edits := warmChain(data)
	if m == nil {
		return
	}
	ws := NewWorkspace()
	var basis *Basis
	for step := 0; ; step++ {
		warm, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("step %d: warm status %v, cold %v", step, warm.Status, cold.Status)
		}
		if warm.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
				t.Fatalf("step %d: warm objective %.17g, cold %.17g", step, warm.Objective, cold.Objective)
			}
			if err := CheckOptimal(m, warm, 1e-6); err != nil {
				t.Fatalf("step %d: warm: %v", step, err)
			}
			if err := CheckOptimal(m, cold, 1e-6); err != nil {
				t.Fatalf("step %d: cold: %v", step, err)
			}
			if nr := m.NumConstrs(); nr > 0 {
				// These models' optima are rarely unique, so the range
				// is checked by feasibility and objective, not by X.
				checkRangeRHS(t, fmt.Sprintf("step %d", step), m, ws, step%nr,
					[]float64{0, 0.25, 0.5, 1}, rangeOracle{tol: 1e-6})
				checkHyperMatchesDense(t, fmt.Sprintf("step %d", step), &ws.f,
					rand.New(rand.NewSource(int64(step))))
			}
			basis = warm.Basis
		}
		if more, err := edits.step(m); err != nil {
			t.Fatal(err)
		} else if !more {
			return
		}
	}
}

// warmChain decodes a FuzzWarmEdits input: data[0] places the split
// between a base model (see fuzzModel) and the edit script that
// follows it. m is nil when the base model does not decode.
func warmChain(data []byte) (m *Model, edits *editScript) {
	if len(data) < 2 {
		return nil, nil
	}
	split := 2 + int(data[0])%(len(data)-1)
	if m = fuzzModel(data[1:split]); m == nil {
		return nil, nil
	}
	// A bounded edit script keeps each run short, so the fuzzer's
	// input minimization stays cheap.
	script := data[split:]
	if len(script) > 64 {
		script = script[:64]
	}
	return m, &editScript{data: script}
}

// editScript is the edit bytes of a FuzzWarmEdits input.
type editScript struct{ data []byte }

func (e *editScript) next() int {
	if len(e.data) == 0 {
		return 0
	}
	b := e.data[0]
	e.data = e.data[1:]
	return int(b)
}

func (e *editScript) half() float64 { return float64(e.next()%17-8) / 2 }

// step applies the script's next batch of edits to m and reports
// whether there was one. An op byte of 7 to 13 makes the edit its
// value mod 7 names and batches the next edit with it: no solve in
// between, so one warm solve meets both, as after a planner's slide.
func (e *editScript) step(m *Model) (bool, error) {
	if len(e.data) == 0 {
		return false, nil
	}
	for batch := true; batch && len(e.data) > 0; {
		op := e.next()
		batch = op/7 == 1
		if err := warmEdit(m, op%7, e.next, e.half); err != nil {
			return false, err
		}
	}
	return true, nil
}

// warmEdit applies one FuzzWarmEdits edit, op in [0, 7), drawing its
// operands from next. Only a failing RemoveVars, which the harness
// never provokes, is an error; the other mutators' rejections of
// decoded operands are part of the fuzzed surface.
func warmEdit(m *Model, op int, next func() int, half func() float64) error {
	nv, nr := m.NumVars(), m.NumConstrs()
	switch {
	case op == 0 && nr > 0:
		_ = m.SetRHS(next()%nr, half())
	case op == 1 && nv > 0:
		_ = m.SetObjCoef(VarID(next()%nv), float64(next()%9-4))
	case op == 2 && nv > 0:
		lo := float64(next()%5 - 2)
		_ = m.SetVarBound(VarID(next()%nv), lo, lo+float64(next()%4))
	case op == 3:
		lo := float64(next()%5 - 2)
		v := m.MustVar(lo, lo+float64(next()%5), float64(next()%9-4), "")
		for r := 0; r < nr; r++ {
			if c := next()%7 - 3; c != 0 {
				_ = m.AddTerm(r, v, float64(c)/2)
			}
		}
	case op == 4 && nv > 0:
		var terms []Term
		for v := 0; v < nv; v++ {
			if c := next()%7 - 3; c != 0 {
				terms = append(terms, Term{Var: VarID(v), Coef: float64(c) / 2})
			}
		}
		_ = m.AddConstr(terms, Sense(next()%3), half())
	case op == 5 && nv > 0:
		// A block drop, of a column fixed at zero first or of a live
		// one.
		v := VarID(next() % nv)
		if next()%2 == 0 {
			_ = m.SetVarBound(v, 0, 0)
		}
		if _, _, err := m.RemoveVars([]VarID{v}); err != nil {
			return err
		}
	case op == 6 && nv > 0 && nr > 0:
		_ = m.AddTerm(next()%nr, VarID(next()%nv), float64(next()%7-3)/2)
	}
	return nil
}
