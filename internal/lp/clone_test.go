package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"prospector/internal/obs"
)

// TestCloneSolvesIdentically: a clone is the same program — cold
// solves of both sides agree on status, objective, and the solution
// vector.
func TestCloneSolvesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := randomFeasibleModel(rng, 3+rng.Intn(8), 2+rng.Intn(8))
		if trial%2 == 0 {
			m.Maximize()
		}
		c := m.Clone()
		if c.StructVersion() != m.StructVersion() {
			t.Fatalf("trial %d: clone StructVersion %d, original %d", trial, c.StructVersion(), m.StructVersion())
		}
		sm, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: original solve: %v", trial, err)
		}
		sc, err := c.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: clone solve: %v", trial, err)
		}
		if sm.Status != sc.Status {
			t.Fatalf("trial %d: original status %v, clone %v", trial, sm.Status, sc.Status)
		}
		if sm.Status != Optimal {
			continue
		}
		if math.Abs(sm.Objective-sc.Objective) > 1e-9*(1+math.Abs(sm.Objective)) {
			t.Errorf("trial %d: objective %g vs clone %g", trial, sm.Objective, sc.Objective)
		}
		for i := range sm.X {
			if math.Abs(sm.X[i]-sc.X[i]) > 1e-9 {
				t.Errorf("trial %d: x[%d] %g vs clone %g", trial, i, sm.X[i], sc.X[i])
			}
		}
	}
}

// TestCloneIsIndependent: in-place and structural edits on one side
// never leak to the other.
func TestCloneIsIndependent(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 10, 1, "x")
	y := m.MustVar(0, 10, 2, "y")
	row := m.MustConstr([]Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, LE, 5)

	c := m.Clone()
	if err := c.SetRHS(row, 9); err != nil {
		t.Fatal(err)
	}
	if got := m.RHS(row); got != 5 {
		t.Fatalf("clone SetRHS leaked into original: rhs %g", got)
	}
	if err := c.SetObjCoef(x, -7); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVarBound(y, 1, 3); err != nil {
		t.Fatal(err)
	}
	if lo, hi := m.Bounds(y); lo != 0 || hi != 10 {
		t.Fatalf("clone SetVarBound leaked into original: [%g, %g]", lo, hi)
	}
	// Structural growth on the clone must not disturb the original's
	// rows (exact-capacity copies force append to reallocate).
	z := c.MustVar(0, 1, 0, "z")
	c.MustConstr([]Term{{Var: z, Coef: 1}}, LE, 1)
	if m.NumVars() != 2 || m.NumConstrs() != 1 {
		t.Fatalf("clone growth leaked into original: %d vars, %d rows", m.NumVars(), m.NumConstrs())
	}
	if c.StructVersion() == m.StructVersion() {
		t.Fatal("clone structural edits did not advance its StructVersion")
	}

	// And the reverse: mutating the original leaves the clone alone.
	if err := m.SetRHS(row, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.RHS(row); got != 9 {
		t.Fatalf("original SetRHS leaked into clone: rhs %g", got)
	}

	// RemoveVars renumbers the surviving rows' terms; on either side
	// it must leave the other side's rows as they were.
	for _, side := range []string{"original", "clone"} {
		a := NewModel()
		a.Maximize()
		u := a.MustVar(0, 1, 1, "u")
		v := a.MustVar(0, 4, 1, "v")
		w := a.MustVar(0, 4, 2, "w")
		a.MustConstr([]Term{{Var: u, Coef: 1}, {Var: v, Coef: 1}}, LE, 1)
		a.MustConstr([]Term{{Var: v, Coef: 1}, {Var: w, Coef: 2}}, LE, 6)
		b := a.Clone()
		edited, kept := a, b
		if side == "clone" {
			edited, kept = b, a
		}
		want, err := kept.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := edited.RemoveVars([]VarID{u}); err != nil {
			t.Fatal(err)
		}
		got, err := kept.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("RemoveVars on the %s changed the other side's optimum: %v %g, was %v %g",
				side, got.Status, got.Objective, want.Status, want.Objective)
		}
	}
}

// TestCloneBasisDoesNotTransfer: a Basis captured on the original is
// rejected (not silently reused) when warm-starting the clone — basis
// validity is pointer-keyed, so each clone starts its own chain.
func TestCloneBasisDoesNotTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomFeasibleModel(rng, 6, 5)
	sol, err := m.Solve(Options{KeepBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Basis == nil {
		t.Fatalf("seed solve: status %v, basis %v", sol.Status, sol.Basis)
	}
	c := m.Clone()
	// Solve the clone "warm" with the original's basis: the solver must
	// treat the stale basis as a cold start and still reach Optimal.
	reg := obs.NewRegistry()
	sc, err := c.Solve(Options{Warm: sol.Basis, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Status != Optimal {
		t.Fatalf("clone solve with foreign basis: status %v", sc.Status)
	}
	if got := reg.Counter("lp.warm_resolves").Value(); got != 0 {
		t.Fatalf("foreign basis was reused warm (%d warm resolves); basis must be pointer-keyed to its model", got)
	}
	if got := reg.Counter("lp.cold_solves").Value(); got != 1 {
		t.Fatalf("expected exactly 1 cold solve for the clone, got %d", got)
	}
}

// TestCloneConcurrent takes clones of one model from several
// goroutines at once, as serve workers stamping planners from one
// snapshot do; under -race it fails if Clone writes to the source
// without synchronization. Every clone must then solve like the source.
func TestCloneConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randomFeasibleModel(rng, 12, 8)
	want, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*Model, 8)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i] = m.Clone()
		}()
	}
	wg.Wait()
	for i, c := range clones {
		if _, _, err := c.RemoveVars([]VarID{0}); err != nil {
			t.Fatal(err)
		}
		got, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("clone %d: RemoveVars changed the source's optimum: %v %g, was %v %g",
				i, got.Status, got.Objective, want.Status, want.Objective)
		}
	}
}
