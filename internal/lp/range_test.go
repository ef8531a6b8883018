package lp

import (
	"math"
	"math/rand"
	"testing"
)

// rangeOracle is what checkRangeRHS compares an interpolated point
// with. exact asks for the cold solve's X itself, which only a model
// with a unique optimum can promise; otherwise the point must be
// feasible and as good as the cold optimum.
type rangeOracle struct {
	exact bool
	tol   float64
}

// checkRangeRHS ranges row's right-hand side right after an Optimal
// solve of m through ws and checks the range against cold solves of m
// at the right-hand sides in fracs (fractions of the way from lo to hi;
// an infinite end is taken 1+|rhs| away). Past each finite end, a
// small step must leave the basis primal infeasible. m's right-hand
// side is restored before it returns.
func checkRangeRHS(t *testing.T, label string, m *Model, ws *Workspace, row int, fracs []float64, or rangeOracle) {
	t.Helper()
	n := m.NumVars()
	vars := make([]VarID, n)
	for v := range vars {
		vars[v] = VarID(v)
	}
	x0, dx := make([]float64, n), make([]float64, n)
	lo, hi, ok := ws.RangeRHS(m, row, vars, x0, dx)
	if !ok {
		t.Fatalf("%s: RangeRHS refused right after an Optimal solve", label)
	}
	rhs := m.RHS(row)
	defer func() { _ = m.SetRHS(row, rhs) }()
	if !(lo <= rhs && rhs <= hi) {
		t.Fatalf("%s: range [%g, %g] misses the solved rhs %g", label, lo, hi, rhs)
	}
	at := func(b float64) []float64 {
		x := make([]float64, n)
		for v := range x {
			x[v] = x0[v] + (b-rhs)*dx[v]
		}
		return x
	}
	a, z := lo, hi
	if math.IsInf(a, -1) {
		a = rhs - 1 - math.Abs(rhs)
	}
	if math.IsInf(z, 1) {
		z = rhs + 1 + math.Abs(rhs)
	}
	for _, f := range fracs {
		b := a + f*(z-a)
		if err := m.SetRHS(row, b); err != nil {
			t.Fatal(err)
		}
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			t.Fatalf("%s: rhs %g inside [%g, %g]: cold solve ended %v", label, b, lo, hi, cold.Status)
		}
		x := at(b)
		if or.exact {
			for v := range x {
				if d := math.Abs(x[v] - cold.X[v]); d > or.tol {
					t.Fatalf("%s: rhs %g inside [%g, %g]: x[%d] = %.17g interpolated, %.17g cold", label, b, lo, hi, v, x[v], cold.X[v])
				}
			}
			continue
		}
		if viol := m.Violation(x); viol > or.tol {
			t.Fatalf("%s: rhs %g inside [%g, %g]: interpolated point violates the model by %g", label, b, lo, hi, viol)
		}
		if obj := m.Objective(x); math.Abs(obj-cold.Objective) > or.tol*(1+math.Abs(cold.Objective)) {
			t.Fatalf("%s: rhs %g inside [%g, %g]: interpolated objective %.17g, cold %.17g", label, b, lo, hi, obj, cold.Objective)
		}
	}
	// Past a finite end the basis itself turns primal infeasible.
	for _, end := range []struct {
		b    float64
		sign float64
	}{{lo, -1}, {hi, 1}} {
		if math.IsInf(end.b, 0) {
			continue
		}
		step := 1e-4 * (1 + math.Abs(end.b))
		if viol := basisInfeasibility(ws, row, end.b+end.sign*step); viol <= 1e-9 {
			t.Fatalf("%s: a step of %g past the end %g of [%g, %g] leaves the basis feasible (violation %g)", label, step, end.b, lo, hi, viol)
		}
	}
}

// basisInfeasibility is the largest bound violation among the basic
// columns (structurals, slacks and artificials alike) of the final
// basis of the last solve through ws, with row's right-hand side moved
// to b and every nonbasic column where the solve left it. It solves
// for the basic values with the dense oracle, not with the factors.
func basisInfeasibility(ws *Workspace, row int, b float64) float64 {
	s := &ws.s
	cols := make([][]centry, s.nTotal)
	for j := range cols {
		cols[j] = s.cols.col(j)
	}
	inv, ok := denseInverse(s.basis[:s.m], cols)
	if !ok {
		panic("final basis is singular")
	}
	rhs := append([]float64(nil), s.b[:s.m]...)
	rhs[row] = b
	for j := 0; j < s.nTotal; j++ {
		if s.stat[j] == basic {
			continue
		}
		for _, e := range cols[j] {
			rhs[e.row] -= e.coef * s.xN[j]
		}
	}
	worst := 0.0
	for p, j := range s.basis[:s.m] {
		v := 0.0
		for r, br := range rhs {
			v += inv[p*s.m+r] * br
		}
		worst = math.Max(worst, math.Max(s.lo[j]-v, v-s.hi[j]))
	}
	return worst
}

// TestRangeRHSMatchesCold ranges a random row of random feasible models
// with random costs, whose optimum is unique: at random right-hand
// sides inside the range, the interpolated point equals a cold solve's
// X within 1e-9, and a small step past either finite end leaves the
// basis primal infeasible.
func TestRangeRHSMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(2206))
	finite := 0
	for trial := 0; trial < 200; trial++ {
		var m *Model
		if trial%2 == 0 {
			m = randomFeasibleModel(rng, 3+rng.Intn(12), 1+rng.Intn(12))
		} else {
			m = randomMixedModel(rng, 3+rng.Intn(12), 1+rng.Intn(10))
		}
		if trial%3 == 0 {
			m.Maximize()
		}
		ws := NewWorkspace()
		sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v (feasible by construction)", trial, sol.Status)
		}
		row := rng.Intn(m.NumConstrs())
		fracs := []float64{0, 1, rng.Float64(), rng.Float64(), rng.Float64()}
		checkRangeRHS(t, "trial", m, ws, row, fracs, rangeOracle{exact: true, tol: 1e-9})
		x0, dx := make([]float64, 1), make([]float64, 1)
		if lo, hi, _ := ws.RangeRHS(m, row, []VarID{0}, x0, dx); !math.IsInf(lo, 0) || !math.IsInf(hi, 0) {
			finite++
		}
	}
	if finite < 100 {
		t.Fatalf("only %d of 200 ranges have a finite end: the past-the-end check barely ran", finite)
	}
}

// TestRangeRHSRefusesStale: ranging needs the last solve through the
// workspace to be an Optimal solve of the same, unedited model.
func TestRangeRHSRefusesStale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomFeasibleModel(rng, 6, 4)
	other := randomFeasibleModel(rng, 6, 4)
	ws := NewWorkspace()
	x0, dx := make([]float64, 1), make([]float64, 1)
	if _, _, ok := ws.RangeRHS(m, 0, []VarID{0}, x0, dx); ok {
		t.Error("ranged before any solve")
	}
	if _, err := m.Solve(Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ws.RangeRHS(other, 0, []VarID{0}, x0, dx); ok {
		t.Error("ranged another model")
	}
	if _, _, ok := ws.RangeRHS(m, m.NumConstrs(), []VarID{0}, x0, dx); ok {
		t.Error("ranged a row out of range")
	}
	if err := m.SetRHS(0, m.RHS(0)+1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ws.RangeRHS(m, 0, []VarID{0}, x0, dx); ok {
		t.Error("ranged after the row's right-hand side moved")
	}
	if _, err := m.Solve(Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	m.MustVar(0, 1, 1, "new")
	if _, _, ok := ws.RangeRHS(m, 0, []VarID{0}, x0, dx); ok {
		t.Error("ranged after a structural edit")
	}
	inf := NewModel()
	x := inf.MustVar(0, 1, 1, "x")
	inf.MustConstr([]Term{{x, 1}}, GE, 2)
	if _, err := inf.Solve(Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ws.RangeRHS(inf, 0, []VarID{0}, x0, dx); ok {
		t.Error("ranged an infeasible solve")
	}
}

// TestRangeRHSAllocFree pins that RangeRHS allocates nothing once its
// scratch is sized.
func TestRangeRHSAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomFeasibleModel(rng, 20, 12)
	ws := NewWorkspace()
	if _, err := m.Solve(Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	vars := []VarID{0, 3, 7}
	x0, dx := make([]float64, 3), make([]float64, 3)
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := ws.RangeRHS(m, 2, vars, x0, dx); !ok {
			t.Fatal("RangeRHS refused")
		}
	})
	if allocs != 0 {
		t.Fatalf("RangeRHS allocated %v times per call, want 0", allocs)
	}
}
