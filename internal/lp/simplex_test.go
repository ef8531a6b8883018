package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOrFail(t *testing.T, m *Model, opts Options) *Solution {
	t.Helper()
	sol, err := m.Solve(opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if err := CheckOptimal(m, sol, 1e-6); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	return sol
}

func TestSolveTrivialBounds(t *testing.T) {
	// min -x, 0 <= x <= 3: optimum at x = 3 with no constraints... but
	// the solver needs at least zero rows; exercise the no-row path via
	// one redundant row.
	m := NewModel()
	x := m.MustVar(0, 3, -1, "x")
	m.MustConstr([]Term{{x, 1}}, LE, 10)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-3) > 1e-8 {
		t.Errorf("x = %g, want 3", sol.X[x])
	}
	if math.Abs(sol.Objective-(-3)) > 1e-8 {
		t.Errorf("objective = %g, want -3", sol.Objective)
	}
}

func TestSolveClassicTwoVar(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6)
	// with objective 36 (Dantzig's textbook example).
	m := NewModel()
	m.Maximize()
	x := m.MustVar(0, Inf, 3, "x")
	y := m.MustVar(0, Inf, 5, "y")
	m.MustConstr([]Term{{x, 1}}, LE, 4)
	m.MustConstr([]Term{{y, 2}}, LE, 12)
	m.MustConstr([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-2) > 1e-7 || math.Abs(sol.X[y]-6) > 1e-7 {
		t.Errorf("solution (%g, %g), want (2, 6)", sol.X[x], sol.X[y])
	}
	if math.Abs(sol.Objective-36) > 1e-7 {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
}

func TestSolveEqualityAndGE(t *testing.T) {
	// min x + 2y s.t. x + y == 10, x >= 2, y >= 3  =>  (7, 3), obj 13.
	m := NewModel()
	x := m.MustVar(2, Inf, 1, "x")
	y := m.MustVar(3, Inf, 2, "y")
	m.MustConstr([]Term{{x, 1}, {y, 1}}, EQ, 10)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-7) > 1e-7 || math.Abs(sol.X[y]-3) > 1e-7 {
		t.Errorf("solution (%g, %g), want (7, 3)", sol.X[x], sol.X[y])
	}
}

func TestSolveGERow(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x - y <= 2, x,y >= 0. Optimal at
	// (4, 0)? obj 8; or (3,1): 9; (0,4): 12. x-y<=2 forbids (4,0)
	// (4-0=4>2). Vertex of x+y=4, x-y=2: (3,1) obj 9. Check x=2,y=2:
	// obj 10. So optimum is (3, 1) with 9.
	m := NewModel()
	x := m.MustVar(0, Inf, 2, "x")
	y := m.MustVar(0, Inf, 3, "y")
	m.MustConstr([]Term{{x, 1}, {y, 1}}, GE, 4)
	m.MustConstr([]Term{{x, 1}, {y, -1}}, LE, 2)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.Objective-9) > 1e-7 {
		t.Errorf("objective = %g, want 9 at (3,1); got (%g, %g)", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, 1, 1, "x")
	m.MustConstr([]Term{{x, 1}}, GE, 5)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	m := NewModel()
	x := m.MustVar(0, Inf, -1, "x")
	y := m.MustVar(0, Inf, 0, "y")
	m.MustConstr([]Term{{x, 1}, {y, -1}}, LE, 1)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveUpperBoundsNoRows(t *testing.T) {
	// Bound flips only: max x + y with box bounds and one slack row.
	m := NewModel()
	m.Maximize()
	x := m.MustVar(1, 5, 1, "x")
	y := m.MustVar(-2, 2, 1, "y")
	m.MustConstr([]Term{{x, 1}, {y, 1}}, LE, 100)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-5) > 1e-8 || math.Abs(sol.X[y]-2) > 1e-8 {
		t.Errorf("solution (%g, %g), want (5, 2)", sol.X[x], sol.X[y])
	}
}

func TestSolveNegativeLowerBounds(t *testing.T) {
	// min x s.t. x >= -3 via bound; x + y >= -1, y in [0, 2].
	m := NewModel()
	x := m.MustVar(-3, Inf, 1, "x")
	y := m.MustVar(0, 2, 0, "y")
	m.MustConstr([]Term{{x, 1}, {y, 1}}, GE, -1)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-(-3)) > 1e-7 {
		t.Errorf("x = %g, want -3", sol.X[x])
	}
}

func TestSolveFixedAndFreeColumns(t *testing.T) {
	// min c + 3b s.t. a + b + c >= 2, a - c <= 5, a in [0.5, 3], b
	// fixed at 1, c free: c >= max(1-a, a-5) is least at a = 3, so the
	// free column goes negative to c = -2, objective 1.
	m := NewModel()
	a := m.MustVar(0.5, 3, 0, "a")
	b := m.MustVar(1, 1, 3, "b")
	c := m.MustVar(-Inf, Inf, 1, "c")
	m.MustConstr([]Term{{a, 1}, {b, 1}, {c, 1}}, GE, 2)
	m.MustConstr([]Term{{a, 1}, {c, -1}}, LE, 5)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[a]-3) > 1e-7 || math.Abs(sol.X[b]-1) > 1e-7 || math.Abs(sol.X[c]-(-2)) > 1e-7 {
		t.Errorf("solution (%g, %g, %g), want (3, 1, -2)", sol.X[a], sol.X[b], sol.X[c])
	}
	if math.Abs(sol.Objective-1) > 1e-7 {
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
}

func TestSolveRangedRow(t *testing.T) {
	// x + 2y over 6 <= x + y <= 10 (one row bounded on both sides, as
	// a GE and an LE row on the same terms), x, y in [0, 8]: minimizing
	// binds the lower side at (6, 0), maximizing the upper at (2, 8).
	for _, tc := range []struct {
		max        bool
		x, y, want float64
	}{{false, 6, 0, 6}, {true, 2, 8, 18}} {
		m := NewModel()
		if tc.max {
			m.Maximize()
		}
		x := m.MustVar(0, 8, 1, "x")
		y := m.MustVar(0, 8, 2, "y")
		m.MustConstr([]Term{{x, 1}, {y, 1}}, GE, 6)
		m.MustConstr([]Term{{x, 1}, {y, 1}}, LE, 10)
		sol := solveOrFail(t, m, Options{})
		if math.Abs(sol.X[x]-tc.x) > 1e-7 || math.Abs(sol.X[y]-tc.y) > 1e-7 {
			t.Errorf("max=%v: solution (%g, %g), want (%g, %g)", tc.max, sol.X[x], sol.X[y], tc.x, tc.y)
		}
		if math.Abs(sol.Objective-tc.want) > 1e-7 {
			t.Errorf("max=%v: objective = %g, want %g", tc.max, sol.Objective, tc.want)
		}
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A degenerate problem that cycles under naive Dantzig pricing
	// without anti-cycling (Beale's example).
	m := NewModel()
	x1 := m.MustVar(0, Inf, -0.75, "x1")
	x2 := m.MustVar(0, Inf, 150, "x2")
	x3 := m.MustVar(0, Inf, -0.02, "x3")
	x4 := m.MustVar(0, Inf, 6, "x4")
	m.MustConstr([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.MustConstr([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.MustConstr([]Term{{x3, 1}}, LE, 1)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.Objective-(-0.05)) > 1e-7 {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestSolveBlandMatchesDantzig(t *testing.T) {
	// The solver prices by Dantzig and falls back to Bland only after
	// stallLimit degenerate pivots; a limit of 0 runs Bland throughout.
	solveAll := func(limit int) []*Solution {
		defer func(old int) { stallLimit = old }(stallLimit)
		stallLimit = limit
		rng := rand.New(rand.NewSource(7))
		var out []*Solution
		for trial := 0; trial < 30; trial++ {
			sol, err := randomFeasibleModel(rng, 6, 8).Solve(Options{})
			if err != nil {
				t.Fatalf("stall limit %d, trial %d: %v", limit, trial, err)
			}
			out = append(out, sol)
		}
		return out
	}
	dantzig, bland := solveAll(stallLimit), solveAll(0)
	pivotsDiffer := false
	for trial, d := range dantzig {
		b := bland[trial]
		if d.Status != Optimal || b.Status != Optimal {
			t.Fatalf("trial %d: status %v (dantzig) vs %v (bland)", trial, d.Status, b.Status)
		}
		if math.Abs(d.Objective-b.Objective) > 1e-6*(1+math.Abs(d.Objective)) {
			t.Errorf("trial %d: objective %g (dantzig) vs %g (bland)", trial, d.Objective, b.Objective)
		}
		pivotsDiffer = pivotsDiffer || d.Iterations != b.Iterations
	}
	// Guard against the threshold silently not reaching pricing: the
	// two rules should take different pivot paths on some model.
	if !pivotsDiffer {
		t.Error("stall limit 0 changed no pivot count; Bland pricing never ran")
	}
}

// randomFeasibleModel builds a random box-bounded minimization with LE
// rows loose enough to keep the origin-ish corner feasible.
func randomFeasibleModel(rng *rand.Rand, nvars, nrows int) *Model {
	m := NewModel()
	ids := make([]VarID, nvars)
	for i := range ids {
		ids[i] = m.MustVar(0, 1+rng.Float64()*4, rng.NormFloat64(), "v")
	}
	for r := 0; r < nrows; r++ {
		var terms []Term
		for _, id := range ids {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{id, rng.NormFloat64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{ids[0], 1})
		}
		// RHS chosen so that the all-lower-bounds point satisfies the
		// row (lhs there is 0 since lo = 0).
		m.MustConstr(terms, LE, rng.Float64()*3)
	}
	return m
}

func TestRandomModelsCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m := randomFeasibleModel(rng, 3+rng.Intn(10), 1+rng.Intn(12))
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if err := CheckOptimal(m, sol, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	if _, err := m.AddVar(2, 1, 0, "bad"); err == nil {
		t.Error("AddVar accepted lo > hi")
	}
	x := m.MustVar(0, 1, 1, "x")
	if err := m.AddConstr(nil, LE, 0); err == nil {
		t.Error("AddConstr accepted empty row")
	}
	if err := m.AddConstr([]Term{{Var: 99, Coef: 1}}, LE, 0); err == nil {
		t.Error("AddConstr accepted unknown variable")
	}
	if err := m.AddConstr([]Term{{x, 1}, {x, -1}}, LE, -1); err == nil {
		t.Error("AddConstr accepted infeasible zero row")
	}
	if err := m.AddConstr([]Term{{x, 1}, {x, -1}}, LE, 1); err != nil {
		t.Errorf("AddConstr rejected trivially true zero row: %v", err)
	}
	if m.NumConstrs() != 0 {
		t.Errorf("trivially true row was retained: %d rows", m.NumConstrs())
	}
}

func TestMergedTerms(t *testing.T) {
	// x + x <= 4 must behave as 2x <= 4.
	m := NewModel()
	m.Maximize()
	x := m.MustVar(0, Inf, 1, "x")
	m.MustConstr([]Term{{x, 1}, {x, 1}}, LE, 4)
	sol := solveOrFail(t, m, Options{})
	if math.Abs(sol.X[x]-2) > 1e-8 {
		t.Errorf("x = %g, want 2", sol.X[x])
	}
}

// randomMixedModel builds a model with LE/GE/EQ rows that is feasible
// by construction: rows are anchored at a known interior point.
func randomMixedModel(rng *rand.Rand, nvars, nrows int) *Model {
	m := NewModel()
	point := make([]float64, nvars)
	ids := make([]VarID, nvars)
	for i := range ids {
		hi := 1 + rng.Float64()*4
		point[i] = rng.Float64() * hi
		ids[i] = m.MustVar(0, hi, rng.NormFloat64(), "v")
	}
	for r := 0; r < nrows; r++ {
		var terms []Term
		lhs := 0.0
		for i, id := range ids {
			if rng.Float64() < 0.5 {
				c := rng.NormFloat64()
				terms = append(terms, Term{id, c})
				lhs += c * point[i]
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{ids[0], 1})
			lhs = point[0]
		}
		switch rng.Intn(3) {
		case 0:
			m.MustConstr(terms, LE, lhs+rng.Float64())
		case 1:
			m.MustConstr(terms, GE, lhs-rng.Float64())
		default:
			m.MustConstr(terms, EQ, lhs)
		}
	}
	return m
}

func TestRandomMixedModelsCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 120; trial++ {
		m := randomMixedModel(rng, 2+rng.Intn(10), 1+rng.Intn(10))
		if trial%2 == 0 {
			m.Maximize()
		}
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v (model is feasible by construction)", trial, sol.Status)
		}
		if err := CheckOptimal(m, sol, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestRefactorizationPreservesSolutions(t *testing.T) {
	// Force a basis reinversion every few pivots: results must match
	// the update-only path exactly (modulo tolerance).
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 40; trial++ {
		m := randomMixedModel(rng, 4+rng.Intn(8), 3+rng.Intn(8))
		plain, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		refac, err := m.Solve(Options{RefactorEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != refac.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, plain.Status, refac.Status)
		}
		if plain.Status != Optimal {
			continue
		}
		if math.Abs(plain.Objective-refac.Objective) > 1e-6*(1+math.Abs(plain.Objective)) {
			t.Errorf("trial %d: objective %g vs %g under refactorization", trial, plain.Objective, refac.Objective)
		}
		if err := CheckOptimal(m, refac, 1e-6); err != nil {
			t.Errorf("trial %d: refactored certificate: %v", trial, err)
		}
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel()
	x := m.MustVar(1, 5, 2, "xvar")
	if m.Name(x) != "xvar" {
		t.Errorf("Name = %q", m.Name(x))
	}
	if lo, hi := m.Bounds(x); lo != 1 || hi != 5 {
		t.Errorf("Bounds = %g, %g", lo, hi)
	}
	for _, s := range []Sense{LE, GE, EQ, Sense(9)} {
		if s.String() == "" {
			t.Errorf("empty String for %d", int(s))
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterationLimit, Status(9)} {
		if st.String() == "" {
			t.Errorf("empty String for status %d", int(st))
		}
	}
}
