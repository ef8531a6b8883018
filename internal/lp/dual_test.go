package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"prospector/internal/obs"
)

// TestDualRatioNeverFlipsWithoutPivot pins the bound-flipping ratio
// test on the smallest model where a flip without a pivot ping-pongs:
// two rows share the [0,1] column x, whose zero reduced cost makes it
// every row's first breakpoint. After the RHS edit, row a is violated
// by just over x's span and row b sits just inside its tolerance.
// Flipping x up repairs a within tolerance and pushes b out by just
// over the span; flipping it back repairs b and breaks a, for ever.
// The ratio test must instead let x enter on a (crossing its span
// would leave a violated by at most tol), so the warm solve ends in a
// few pivots, agrees with a cold solve, and never needs the cold
// fallback even under a small MaxIters.
func TestDualRatioNeverFlipsWithoutPivot(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 1, 0, "x")
	z := m.MustVar(0, 10, 1, "z")
	a := m.MustConstr([]Term{{x, -1}, {z, -1}}, LE, 0)
	b := m.MustConstr([]Term{{x, 1}, {z, -1}}, LE, 0)
	ws := NewWorkspace()
	sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v / %v", err, sol.Status)
	}
	const half = 0.5e-7 // half the default tolerance
	if err := m.SetRHS(a, -(1 + half)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRHS(b, -half); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	warm, err := m.Solve(Options{Workspace: ws, Warm: sol.Basis, MaxIters: 10, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !warm.Warm {
		t.Fatalf("warm re-solve: status %v, warm %v (lp.status.iteration-limit %d, lp.warm_fallbacks %d)",
			warm.Status, warm.Warm, reg.Counter("lp.status.iteration-limit").Value(), reg.Counter("lp.warm_fallbacks").Value())
	}
	if warm.BoundFlips > warm.Pivots {
		t.Errorf("%d bound flips over %d pivots: a flip came without a pivot", warm.BoundFlips, warm.Pivots)
	}
	if err := CheckOptimal(m, warm, 1e-6); err != nil {
		t.Fatalf("warm: %v", err)
	}
	cold, err := m.Solve(Options{MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	objClose(t, 0, warm, cold)
}

// TestDualKeptReducedCostsMatchFresh checks the reduced costs the dual
// simplex keeps across its pivots (d_j −= θ·α_j per pivot, reseeded
// only at a refactorization) against ones recomputed from a fresh
// Btran. Random boxed models are solved cold, their right-hand sides
// pushed down far enough that the optimal basis turns primal
// infeasible, and the dual recovery stepped one iteration at a time;
// after every step each nonbasic, unfixed column's kept reduced cost
// must match the fresh one.
func TestDualKeptReducedCostsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps, flips := 0, 0
	for trial := 0; trial < 40; trial++ {
		m := NewModel()
		vars := make([]VarID, 30)
		for i := range vars {
			vars[i] = m.MustVar(0, 1+3*rng.Float64(), rng.NormFloat64(), "v")
		}
		cons := make([]int, 25)
		for r := range cons {
			var terms []Term
			for _, v := range vars {
				if rng.Float64() < 0.3 {
					terms = append(terms, Term{v, rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{vars[r], 1})
			}
			cons[r] = m.MustConstr(terms, LE, 3*rng.Float64())
		}
		ws := NewWorkspace()
		sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: cold: %v / %v", trial, err, sol.Status)
		}
		for _, c := range cons {
			if rng.Float64() < 0.4 {
				if err := m.SetRHS(c, -2*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := ws.prepare(m, Options{})
		if !s.adoptBasis(sol.Basis, ws) {
			t.Fatalf("trial %d: basis not adopted", trial)
		}
		if s.primalInfeasibility() <= s.tol || !s.dualFeasible() {
			continue
		}
		for st := IterationLimit; st == IterationLimit; {
			s.maxIt = s.iters + 1
			st = s.dualIterate()
			kept := slices.Clone(s.d[:s.artStart])
			s.computeReducedCosts(s.c)
			for j := 0; j < s.artStart; j++ {
				if s.stat[j] == basic || sameFloat(s.lo[j], s.hi[j]) {
					continue
				}
				if diff := math.Abs(kept[j] - s.d[j]); diff > 1e-9*(1+math.Abs(s.d[j])) {
					t.Fatalf("trial %d, iteration %d: column %d keeps reduced cost %g, fresh %g",
						trial, s.iters, j, kept[j], s.d[j])
				}
			}
			steps++
		}
		flips += s.flips
	}
	if steps < 100 || flips == 0 {
		t.Errorf("%d dual steps with %d bound flips: the recovery went unexercised", steps, flips)
	}
}

// TestPrimalKeptReducedCostsMatchFresh is the primal twin of
// TestDualKeptReducedCostsMatchFresh: the primal simplex keeps its
// reduced costs across pivots too (d_j −= θ·α_j over a pivot row
// formed row-wise), recomputing them only at a refactorization or to
// confirm an optimum. Random boxed models are solved cold, their
// objectives perturbed so the optimal basis stays primal feasible but
// stops being optimal, and the primal recovery stepped one iteration
// at a time; after every step each nonbasic, unfixed column's kept
// reduced cost must match a fresh one.
func TestPrimalKeptReducedCostsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pivots := 0
	for trial := 0; trial < 40; trial++ {
		m := NewModel()
		vars := make([]VarID, 30)
		for i := range vars {
			vars[i] = m.MustVar(0, 1+3*rng.Float64(), rng.NormFloat64(), "v")
		}
		for r := 0; r < 25; r++ {
			var terms []Term
			for _, v := range vars {
				if rng.Float64() < 0.3 {
					terms = append(terms, Term{v, rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{vars[r], 1})
			}
			sense := LE
			if rng.Intn(4) == 0 {
				sense = GE
			}
			m.MustConstr(terms, sense, 3*rng.Float64()-0.5)
		}
		ws := NewWorkspace()
		sol, err := m.Solve(Options{Workspace: ws, KeepBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		for _, v := range vars {
			if rng.Float64() < 0.5 {
				if err := m.SetObjCoef(v, rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := ws.prepare(m, Options{})
		if !s.adoptBasis(sol.Basis, ws) {
			t.Fatalf("trial %d: basis not adopted", trial)
		}
		if s.primalInfeasibility() > s.tol {
			continue
		}
		s.computeReducedCosts(s.c)
		for st := IterationLimit; st == IterationLimit; {
			before := s.pivotsTotal
			s.maxIt = s.iters + 1
			st = s.primal(s.c, false)
			kept := slices.Clone(s.d[:s.artStart])
			s.computeReducedCosts(s.c)
			for j := 0; j < s.artStart; j++ {
				if s.stat[j] == basic || sameFloat(s.lo[j], s.hi[j]) {
					continue
				}
				if diff := math.Abs(kept[j] - s.d[j]); diff > 1e-9*(1+math.Abs(s.d[j])) {
					t.Fatalf("trial %d, iteration %d: column %d keeps reduced cost %g, fresh %g",
						trial, s.iters, j, kept[j], s.d[j])
				}
			}
			pivots += s.pivotsTotal - before
		}
	}
	if pivots < 100 {
		t.Errorf("%d primal pivots: the recovery went unexercised", pivots)
	}
}
