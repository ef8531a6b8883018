package lp

import (
	"math"
	"math/rand"
	"testing"

	"prospector/internal/obs"
)

// solveWarmChain cold-solves m once through ws capturing the basis,
// then returns a re-solve closure that warm-starts from the latest
// basis after the caller's in-place mutation.
func startWarmChain(t *testing.T, m *Model, ws *Workspace) (*Solution, func() *Solution) {
	t.Helper()
	opts := Options{Workspace: ws, KeepBasis: true}
	sol, err := m.Solve(opts)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	basis := sol.Basis
	resolve := func() *Solution {
		s, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: basis})
		if err != nil {
			t.Fatalf("warm solve: %v", err)
		}
		if s.Basis != nil {
			basis = s.Basis
		}
		return s
	}
	return sol, resolve
}

func objClose(t *testing.T, trial int, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("trial %d: warm status %v, cold status %v", trial, warm.Status, cold.Status)
	}
	if cold.Status != Optimal {
		return
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Errorf("trial %d: warm objective %g, cold %g", trial, warm.Objective, cold.Objective)
	}
}

// TestWarmRHSSweepCertified is the parametric hot path: one model, one
// basis chain, a sweep of right-hand sides. Every warm result must
// carry a full KKT certificate and match a from-scratch cold solve.
func TestWarmRHSSweepCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		m := randomFeasibleModel(rng, 4+rng.Intn(8), 2+rng.Intn(8))
		if trial%3 == 0 {
			m.Maximize()
		}
		// A dedicated "budget" row to perturb, like the planners'.
		ids := make([]Term, 0, m.NumVars())
		for v := 0; v < m.NumVars(); v++ {
			ids = append(ids, Term{Var: VarID(v), Coef: 1 + rng.Float64()})
		}
		budgetRow := m.MustConstr(ids, LE, 2+rng.Float64()*3)
		ws := NewWorkspace()
		_, resolve := startWarmChain(t, m, ws)
		for step := 0; step < 8; step++ {
			rhs := 0.5 + rng.Float64()*5
			if err := m.SetRHS(budgetRow, rhs); err != nil {
				t.Fatalf("SetRHS: %v", err)
			}
			warm := resolve()
			cold, err := m.Solve(Options{})
			if err != nil {
				t.Fatalf("cold reference: %v", err)
			}
			objClose(t, trial, warm, cold)
			if warm.Status == Optimal {
				if err := CheckOptimal(m, warm, 1e-6); err != nil {
					t.Errorf("trial %d step %d: warm certificate: %v", trial, step, err)
				}
			}
		}
	}
}

// TestWarmIsActuallyWarm pins that a pure RHS re-solve takes the warm
// path (Solution.Warm) and needs far fewer pivots than the cold solve
// of the same instance.
func TestWarmIsActuallyWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomFeasibleModel(rng, 12, 10)
	terms := make([]Term, 0, m.NumVars())
	for v := 0; v < m.NumVars(); v++ {
		terms = append(terms, Term{Var: VarID(v), Coef: 1})
	}
	budgetRow := m.MustConstr(terms, LE, 6)
	ws := NewWorkspace()
	_, resolve := startWarmChain(t, m, ws)
	for step := 1; step <= 6; step++ {
		if err := m.SetRHS(budgetRow, 6-0.5*float64(step)); err != nil {
			t.Fatalf("SetRHS: %v", err)
		}
		warm := resolve()
		if warm.Status != Optimal {
			t.Fatalf("step %d: status %v", step, warm.Status)
		}
		if !warm.Warm {
			t.Fatalf("step %d: re-solve did not take the warm path", step)
		}
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Pivots > 0 && warm.Pivots > cold.Pivots {
			t.Errorf("step %d: warm used %d pivots, cold only %d", step, warm.Pivots, cold.Pivots)
		}
	}
}

// TestWarmAfterBoundFlip covers the satellite edge case: a bound edit
// that makes the cached basis primal-infeasible. The warm solve must
// recover (dual pivots or fallback) and agree with a cold solve.
func TestWarmAfterBoundFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		m := randomMixedModel(rng, 3+rng.Intn(8), 2+rng.Intn(6))
		ws := NewWorkspace()
		first, resolve := startWarmChain(t, m, ws)
		if first.Status != Optimal {
			continue
		}
		// Raise a lower bound to above a variable's current optimal
		// value: its basic/resting value becomes infeasible.
		v := VarID(rng.Intn(m.NumVars()))
		lo, hi := m.Bounds(v)
		newLo := math.Min(first.X[v]+0.25*(1+rng.Float64()), hi)
		if newLo <= lo {
			newLo = math.Min(lo+0.1, hi)
		}
		if err := m.SetVarBound(v, newLo, hi); err != nil {
			t.Fatalf("SetVarBound: %v", err)
		}
		warm := resolve()
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("cold reference: %v", err)
		}
		objClose(t, trial, warm, cold)
		if warm.Status == Optimal {
			if err := CheckOptimal(m, warm, 1e-6); err != nil {
				t.Errorf("trial %d: warm certificate after bound flip: %v", trial, err)
			}
		}
	}
}

// TestWarmAfterObjChange exercises the primal-feasible / dual-infeasible
// warm case: the basis point is unchanged, only pricing moved.
func TestWarmAfterObjChange(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		m := randomFeasibleModel(rng, 4+rng.Intn(8), 2+rng.Intn(8))
		ws := NewWorkspace()
		_, resolve := startWarmChain(t, m, ws)
		v := VarID(rng.Intn(m.NumVars()))
		if err := m.SetObjCoef(v, rng.NormFloat64()); err != nil {
			t.Fatalf("SetObjCoef: %v", err)
		}
		warm := resolve()
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("cold reference: %v", err)
		}
		objClose(t, trial, warm, cold)
		if warm.Status == Optimal {
			if err := CheckOptimal(m, warm, 1e-6); err != nil {
				t.Errorf("trial %d: warm certificate after obj change: %v", trial, err)
			}
		}
	}
}

// TestWarmStaleBasisFallsBack pins the two fates of a captured basis
// after the model moves on. Appending a variable and a row carries the
// basis over and stays warm; a basis captured from another model
// (here one built the same way, which shares the structure but not
// the identity) is stale, and the solve falls back cold. Both must match a cold solve.
func TestWarmStaleBasisFallsBack(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 4, -1, "x")
	m.MustConstr([]Term{{x, 1}}, LE, 3)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	basis := sol.Basis
	// Structural append: the captured basis carries over.
	y := m.MustVar(0, 4, -2, "y")
	m.MustConstr([]Term{{x, 1}, {y, 1}}, LE, 5)
	appended, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: basis})
	if err != nil {
		t.Fatalf("warm-after-append: %v", err)
	}
	if !appended.Warm {
		t.Error("an appended variable and row broke the warm start")
	}
	want := -1*1.0 - 2*4.0 // y fills to its bound, x takes the row's rest
	cold, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if appended.Status != Optimal || math.Abs(appended.Objective-cold.Objective) > 1e-9 ||
		math.Abs(cold.Objective-want) > 1e-9 {
		t.Errorf("warm-after-append %v objective %g, cold %g, want %g", appended.Status, appended.Objective, cold.Objective, want)
	}

	// A basis from another model is stale: the solve falls back cold.
	other := NewModel()
	ox := other.MustVar(0, 4, -1, "x")
	other.MustConstr([]Term{{ox, 1}}, LE, 3)
	oy := other.MustVar(0, 4, -2, "y")
	other.MustConstr([]Term{{ox, 1}, {oy, 1}}, LE, 4)
	warm, err := other.Solve(Options{Workspace: ws, Warm: appended.Basis})
	if err != nil {
		t.Fatalf("warm from another model: %v", err)
	}
	if warm.Warm {
		t.Error("a basis from another model was reported as a warm solve")
	}
	if warm.Status != Optimal {
		t.Fatalf("status %v", warm.Status)
	}
	coldOther, err := other.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-coldOther.Objective) > 1e-9 {
		t.Errorf("warm-fallback objective %g, cold %g", warm.Objective, coldOther.Objective)
	}
}

// TestWarmAcrossWorkspaces pins that a Basis can seed a solve through a
// *different* workspace (forcing a refactorization of the snapshot).
func TestWarmAcrossWorkspaces(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		m := randomFeasibleModel(rng, 6, 8)
		terms := []Term{{0, 1}, {1, 1}, {2, 1}}
		row := m.MustConstr(terms, LE, 4)
		ws1 := NewWorkspace()
		sol, err := m.Solve(Options{Workspace: ws1, KeepBasis: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("cold: %v / %v", err, sol.Status)
		}
		if err := m.SetRHS(row, 2); err != nil {
			t.Fatal(err)
		}
		warm, err := m.Solve(Options{Workspace: NewWorkspace(), Warm: sol.Basis})
		if err != nil {
			t.Fatalf("warm via fresh workspace: %v", err)
		}
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		objClose(t, trial, warm, cold)
	}
}

// TestWarmIterationLimit pins the fallback contract for an exhausted
// budget: a warm solve whose recovery hits MaxIters restarts cold
// inside Solve (one lp.warm_fallbacks, Solution.Warm false), and the
// restart honours the same MaxIters, so a too-small budget still ends
// IterationLimit rather than running unbounded.
func TestWarmIterationLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := randomFeasibleModel(rng, 14, 14)
	terms := make([]Term, 0, m.NumVars())
	for v := 0; v < m.NumVars(); v++ {
		terms = append(terms, Term{Var: VarID(v), Coef: 1})
	}
	row := m.MustConstr(terms, LE, 8)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	if err := m.SetRHS(row, 0.3); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	starved, err := m.Solve(Options{Workspace: ws, Warm: sol.Basis, MaxIters: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Status != IterationLimit {
		t.Fatalf("MaxIters=1 status %v, want %v", starved.Status, IterationLimit)
	}
	if starved.Iterations > 1 {
		t.Errorf("MaxIters=1 not honored by the cold restart: %d iterations", starved.Iterations)
	}
	if starved.Warm {
		t.Error("a warm attempt that hit MaxIters was reported as a warm solve")
	}
	if got := reg.Counter("lp.warm_fallbacks").Value(); got != 1 {
		t.Errorf("lp.warm_fallbacks = %d, want 1", got)
	}
	// With a sane budget the same chain succeeds.
	full, err := m.Solve(Options{Workspace: ws, Warm: sol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("recovered solve status %v", full.Status)
	}
}

// TestWarmSteadyStateZeroAlloc is the tentpole's allocation pin: once
// the chain is warm, a mutate→warm-resolve cycle through a Workspace
// must not allocate at all in the solver core — also when the chain
// rebuilds its LU factors after every pivot (RefactorEvery 1), where
// the RHS swings far enough that every re-solve pivots.
func TestWarmSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		every int
		rhs   []float64
	}{
		{0, []float64{4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 2.5, 3.0, 3.5, 4.0}},
		{1, []float64{0.5, 4.5}},
	} {
		every, rhs := tc.every, tc.rhs
		rng := rand.New(rand.NewSource(97))
		m := randomFeasibleModel(rng, 10, 12)
		terms := make([]Term, 0, m.NumVars())
		for v := 0; v < m.NumVars(); v++ {
			terms = append(terms, Term{Var: VarID(v), Coef: 1})
		}
		row := m.MustConstr(terms, LE, 5)
		ws := NewWorkspace()
		opts := Options{Workspace: ws, KeepBasis: true, RefactorEvery: every}
		sol, err := m.Solve(opts)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("RefactorEvery %d: cold: %v / %v", every, err, sol.Status)
		}
		basis := sol.Basis
		step := 0
		resolve := func() {
			if err := m.SetRHS(row, rhs[step%len(rhs)]); err != nil {
				t.Fatal(err)
			}
			step++
			opts.Warm = basis
			s, err := m.Solve(opts)
			if err != nil || s.Status != Optimal || !s.Warm {
				t.Fatalf("RefactorEvery %d, step %d: %v / %v (warm %v)", every, step, err, s.Status, s.Warm)
			}
			// AllocsPerRun truncates to whole allocations per run, so
			// the pin only covers the LU rebuild if every run does one.
			if every == 1 && s.Refactorizations == 0 {
				t.Fatalf("RefactorEvery 1, step %d: no refactorization; the pin is vacuous", step)
			}
			basis = s.Basis
		}
		// Warm the chain (first warm solve may still grow buffers).
		for i := 0; i < 3; i++ {
			resolve()
		}
		if allocs := testing.AllocsPerRun(50, resolve); allocs != 0 {
			t.Errorf("RefactorEvery %d: steady-state warm re-solve allocates %.1f allocs/op, want 0", every, allocs)
		}
	}
}

// TestColdResolveZeroAlloc pins the cold path: once a Workspace has
// grown to a model, re-solving it cold (crash basis, phase 1 where the
// mixed rows need it, refactorizations) allocates nothing.
func TestColdResolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randomMixedModel(rng, 12, 10)
	for _, every := range []int{0, 1} {
		ws := NewWorkspace()
		opts := Options{Workspace: ws, RefactorEvery: every}
		solve := func() {
			s, err := m.Solve(opts)
			if err != nil || s.Status != Optimal {
				t.Fatalf("RefactorEvery %d: %v / %v", every, err, s.Status)
			}
		}
		for i := 0; i < 3; i++ {
			solve()
		}
		if allocs := testing.AllocsPerRun(50, solve); allocs != 0 {
			t.Errorf("RefactorEvery %d: cold re-solve allocates %.1f allocs/op, want 0", every, allocs)
		}
	}
}

// TestMutatorValidation covers the in-place mutators' error paths,
// including SetRHS against the -1 sentinel MustConstr returns for a
// dropped (trivially true) row.
func TestMutatorValidation(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 1, 1, "x")
	kept := m.MustConstr([]Term{{x, 1}}, LE, 1)
	dropped := m.MustConstr([]Term{{x, 1}, {x, -1}}, LE, 1)
	if dropped != -1 {
		t.Fatalf("cancelled row index %d, want -1", dropped)
	}
	if kept != 0 {
		t.Fatalf("kept row index %d, want 0", kept)
	}
	if err := m.SetRHS(dropped, 2); err == nil {
		t.Error("SetRHS accepted the dropped-row sentinel")
	}
	if err := m.SetRHS(5, 2); err == nil {
		t.Error("SetRHS accepted an out-of-range row")
	}
	if err := m.SetRHS(kept, math.NaN()); err == nil {
		t.Error("SetRHS accepted NaN")
	}
	if err := m.SetRHS(kept, 0.5); err != nil {
		t.Errorf("SetRHS rejected a valid update: %v", err)
	}
	if !sameFloat(m.RHS(kept), 0.5) {
		t.Errorf("RHS %g after SetRHS, want 0.5", m.RHS(kept))
	}
	if err := m.SetObjCoef(VarID(9), 1); err == nil {
		t.Error("SetObjCoef accepted an unknown variable")
	}
	if err := m.SetObjCoef(x, math.Inf(1)); err == nil {
		t.Error("SetObjCoef accepted +Inf")
	}
	if err := m.SetVarBound(x, 2, 1); err == nil {
		t.Error("SetVarBound accepted lo > hi")
	}
	if err := m.SetVarBound(VarID(-1), 0, 1); err == nil {
		t.Error("SetVarBound accepted a negative variable")
	}
	v0 := m.StructVersion()
	if err := m.SetVarBound(x, 0, 2); err != nil {
		t.Errorf("SetVarBound rejected a valid update: %v", err)
	}
	if m.StructVersion() != v0 {
		t.Error("in-place mutator changed StructVersion")
	}
	m.MustVar(0, 1, 1, "y")
	if m.StructVersion() == v0 {
		t.Error("AddVar did not change StructVersion")
	}
}

// TestSetRHSRedundantRowBinds: a row that starts redundant (it can
// never bind under the variable bounds) still accepts SetRHS, and a
// warm chain honours each update once the tightened row binds.
func TestSetRHSRedundantRowBinds(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 1, -1, "x") // maximize x via minimizing -x
	y := m.MustVar(0, 1, -1, "y")
	// Redundant at first: x + y <= 10 can never bind with x,y <= 1.
	row := m.MustConstr([]Term{{x, 1}, {y, 1}}, LE, 10)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold start: %v / %v", err, sol.Status)
	}
	if math.Abs(sol.Objective-(-2)) > 1e-8 {
		t.Fatalf("objective %g, want -2", sol.Objective)
	}
	// Tighten the redundant row until it binds, then loosen it within
	// the binding range.
	for _, rhs := range []float64{0.5, 1.25} {
		if err := m.SetRHS(row, rhs); err != nil {
			t.Fatalf("SetRHS(%g) on redundant row: %v", rhs, err)
		}
		sol, err = m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: sol.Basis})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("rhs %g: warm re-solve: %v / %v", rhs, err, sol.Status)
		}
		if math.Abs(sol.Objective-(-rhs)) > 1e-8 {
			t.Errorf("rhs %g: warm objective %g, want %g", rhs, sol.Objective, -rhs)
		}
	}
}

// TestWarmMixedMutations hammers the chain with interleaved RHS, bound,
// and objective edits — including the both-infeasible fallback path —
// checking every step against a cold reference.
func TestWarmMixedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 25; trial++ {
		m := randomMixedModel(rng, 4+rng.Intn(6), 3+rng.Intn(6))
		ws := NewWorkspace()
		first, resolve := startWarmChain(t, m, ws)
		if first.Status != Optimal {
			continue
		}
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(m.NumConstrs())
				if err := m.SetRHS(i, m.RHS(i)+rng.NormFloat64()*0.5); err != nil {
					t.Fatal(err)
				}
			case 1:
				v := VarID(rng.Intn(m.NumVars()))
				if err := m.SetObjCoef(v, rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			default:
				v := VarID(rng.Intn(m.NumVars()))
				_, hi := m.Bounds(v)
				newLo := rng.Float64() * hi * 0.5
				if err := m.SetVarBound(v, newLo, hi); err != nil {
					t.Fatal(err)
				}
			}
			warm := resolve()
			cold, err := m.Solve(Options{})
			if err != nil {
				t.Fatalf("cold reference: %v", err)
			}
			objClose(t, trial, warm, cold)
		}
	}
}

// TestWarmCarriesOverSlide walks a basis through a slide one edit at a
// time: fix a block of columns at zero and re-solve, remove them with
// their rows and re-solve, append a new block with terms in a
// surviving row and re-solve. Every re-solve must stay warm and match
// a cold solve, and RemoveVars must renumber the survivors densely.
func TestWarmCarriesOverSlide(t *testing.T) {
	m, y, b, budget, block := slideModel()
	old := block(3)
	block(2)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	check := func(label string) {
		t.Helper()
		warm, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: sol.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Warm || warm.Status != Optimal {
			t.Fatalf("%s: warm %v, status %v", label, warm.Warm, warm.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Errorf("%s: warm objective %g, cold %g", label, warm.Objective, cold.Objective)
		}
		if err := CheckOptimal(m, warm, 1e-9); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		sol = warm
	}
	for _, x := range old {
		if err := m.SetVarBound(x, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	check("retire")
	vars, rows := m.NumVars(), m.NumConstrs()
	varMap, rowMap, err := m.RemoveVars(old)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVars() != vars-3 || m.NumConstrs() != rows-4 {
		t.Fatalf("RemoveVars left %d vars, %d rows; want %d, %d", m.NumVars(), m.NumConstrs(), vars-3, rows-4)
	}
	for _, x := range old {
		if varMap[x] != -1 {
			t.Errorf("removed variable %d maps to %d", x, varMap[x])
		}
	}
	if varMap[y] != y || varMap[b] != b || rowMap[budget] != budget || varMap[vars-1] != VarID(vars-4) {
		t.Errorf("survivors renumbered to y %d, b %d, budget row %d, last %d", varMap[y], varMap[b], rowMap[budget], varMap[vars-1])
	}
	check("drop")
	// The new block opens a new edge variable with a term in the
	// budget row.
	z := m.MustVar(0, 1, 0.5, "z")
	if err := m.AddTerm(rowMap[budget], z, 1); err != nil {
		t.Fatal(err)
	}
	block(4)
	check("append")
}

// TestStructuralEditValidation covers AddTerm's and RemoveVars' error
// paths.
func TestStructuralEditValidation(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 1, 1, "x")
	r := m.MustConstr([]Term{{x, 1}}, LE, 1)
	if err := m.AddTerm(r+1, x, 1); err == nil {
		t.Error("AddTerm accepted an unknown row")
	}
	if err := m.AddTerm(r, x+1, 1); err == nil {
		t.Error("AddTerm accepted an unknown variable")
	}
	if err := m.AddTerm(r, x, math.NaN()); err == nil {
		t.Error("AddTerm accepted NaN")
	}
	if err := m.AddTerm(r, x, -1); err == nil {
		t.Error("AddTerm emptied a row")
	}
	if _, _, err := m.RemoveVars([]VarID{x + 1}); err == nil {
		t.Error("RemoveVars accepted an unknown variable")
	}
}

// slideModel is the sliding planners' program in miniature: maximize
// sum x subject to x_i <= y and sum x_i <= b per block, y + b <=
// budget. It returns the model, y, b and the budget row; block appends
// a block of n columns.
func slideModel() (m *Model, y, b VarID, budget int, block func(n int) []VarID) {
	m = NewModel()
	m.Maximize()
	y = m.MustVar(0, 1, 0, "y")
	b = m.MustVar(0, 3, -0.01, "b")
	budget = m.MustConstr([]Term{{y, 1}, {b, 1}}, LE, 2.5)
	block = func(n int) []VarID {
		xs := make([]VarID, n)
		terms := []Term{{b, -1}}
		for i := range xs {
			xs[i] = m.MustVar(0, 1, 1, "")
			m.MustConstr([]Term{{xs[i], 1}, {y, -1}}, LE, 0)
			terms = append(terms, Term{xs[i], 1})
		}
		m.MustConstr(terms, LE, 0)
		return xs
	}
	return m, y, b, budget, block
}

// warmMatchesCold re-solves m warm from basis and requires the one
// solve to stay warm, match a cold solve's objective within 1e-9 and
// carry a KKT certificate at 1e-9.
func warmMatchesCold(t *testing.T, m *Model, ws *Workspace, basis *Basis) *Solution {
	t.Helper()
	warm, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Status != Optimal {
		t.Fatalf("warm %v, status %v", warm.Warm, warm.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm objective %.12g, cold %.12g", warm.Objective, cold.Objective)
	}
	if err := CheckOptimal(m, warm, 1e-9); err != nil {
		t.Error(err)
	}
	return warm
}

// TestWarmDropsLiveBlock drops a block whose columns are basic and
// strictly inside their bounds, with no solve to retire it first, and
// appends a new block: the one warm solve that follows must carry the
// basis over both edits. With the block gone only the budget row is
// left, and y and b, both interior, cannot both stay basic in it.
func TestWarmDropsLiveBlock(t *testing.T) {
	m, _, _, _, block := slideModel()
	old := block(3)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	live := 0
	for _, x := range old {
		if v := sol.X[x]; sol.Basis.stat[x] == basic && v > 1e-6 && v < 1-1e-6 {
			live++
		}
	}
	if live == 0 {
		t.Fatalf("no leaving column is basic and interior: x = %v", sol.X[old[0]:old[len(old)-1]+1])
	}
	if _, _, err := m.RemoveVars(old); err != nil {
		t.Fatal(err)
	}
	block(4)
	// The carried-over start keeps the point feasible: the column that
	// cannot stay basic is crossed over, not rested at a bound.
	probe := NewWorkspace()
	s := probe.prepare(m, Options{})
	if !s.adoptEdited(m, sol.Basis, probe) {
		t.Fatal("basis not carried over")
	}
	if v := s.primalInfeasibility(); v > s.tol {
		t.Errorf("carried-over start is primal infeasible by %g", v)
	}
	warmMatchesCold(t, m, ws, sol.Basis)
}

// TestWarmBothInfeasibleStaysWarm raises the budget row's right-hand
// side, which pushes the basic y past its upper bound, and appends an
// improving column in the same step, so the carried basis starts both
// primal and dual infeasible: the solve must recover warm.
func TestWarmBothInfeasibleStaysWarm(t *testing.T) {
	m, _, _, budget, block := slideModel()
	block(3)
	block(2)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	if err := m.SetRHS(budget, 5); err != nil {
		t.Fatal(err)
	}
	z := m.MustVar(0, 1, 2, "z")
	if err := m.AddTerm(budget, z, 0.5); err != nil {
		t.Fatal(err)
	}
	warmMatchesCold(t, m, ws, sol.Basis)
}

// TestCarryPeelsOnce checks that carrying a basis over structural
// edits factors it once, whatever the edits did to it: random warm
// chains (decoded as FuzzWarmEdits decodes them) are probed before
// every warm solve that follows a structural edit, and each carry must
// run exactly one peel. The chains must reach both repairs the
// rank-revealing factorization makes: a basis with every position
// filled but singular, and one with positions left empty.
func TestCarryPeelsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var carries, singular, empty int
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 24+rng.Intn(60))
		rng.Read(data)
		m, edits := warmChain(data)
		if m == nil {
			continue
		}
		ws := NewWorkspace()
		var basis *Basis
		for {
			if basis != nil && basis.structVersion != m.structVersion {
				probe := NewWorkspace()
				s := probe.prepare(m, Options{})
				if s.adoptEdited(m, basis, probe) {
					if n := probe.f.peels; n != 1 {
						t.Fatalf("trial %d: the carry ran %d peels", trial, n)
					}
					carries++
					sc := &probe.carry
					if sc.empty > 0 {
						empty++
					} else if sc.replaced > 0 {
						singular++
					}
				}
			}
			sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true, Warm: basis})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == Optimal {
				basis = sol.Basis
			}
			if more, err := edits.step(m); err != nil {
				t.Fatal(err)
			} else if !more {
				break
			}
		}
	}
	t.Logf("%d carries: %d full but singular, %d with empty positions", carries, singular, empty)
	if singular == 0 || empty == 0 {
		t.Errorf("%d carries: %d full but singular, %d with empty positions; want both kinds", carries, singular, empty)
	}
}
