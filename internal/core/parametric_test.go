package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prospector/internal/lp"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// planKinds enumerates the parametric LP planners under differential
// test, each with a budget axis sized to its cost structure.
type diffCase struct {
	name    string
	make    func(cfg Config) (Planner, error)
	budgets func(cfg Config) []float64
}

func newLPNoFilter(cfg Config) (Planner, error) { return NewLPNoFilter(cfg) }
func newLPFilter(cfg Config) (Planner, error)   { return NewLPFilter(cfg) }

func diffCases() []diffCase {
	return []diffCase{
		{
			name: "LP-LF",
			make: newLPNoFilter,
			budgets: func(cfg Config) []float64 {
				return []float64{25, 40, 60, 90, 140, 220, 350}
			},
		},
		{
			name: "LP+LF",
			make: newLPFilter,
			budgets: func(cfg Config) []float64 {
				return []float64{30, 50, 80, 130, 210, 340}
			},
		},
		{
			name: "Proof",
			make: func(cfg Config) (Planner, error) { return NewProofPlanner(cfg) },
			budgets: func(cfg Config) []float64 {
				pp, err := NewProofPlanner(cfg)
				if err != nil {
					panic(err)
				}
				min := pp.MinBudget()
				return []float64{min * 1.05, min * 1.2, min * 1.4, min * 1.7, min * 2.1, min * 2.6}
			},
		},
	}
}

func plansEqual(a, b *plan.Plan) bool {
	return a.Kind == b.Kind &&
		reflect.DeepEqual(a.Bandwidth, b.Bandwidth) &&
		reflect.DeepEqual(a.Chosen, b.Chosen)
}

// freshPlan is the cold reference of the warm-chain tests: a new
// planner's first Plan builds the program and cold-solves it directly,
// with no basis chain behind it.
func freshPlan(t testing.TB, newPlanner func(Config) (Planner, error), cfg Config, budget float64) *plan.Plan {
	t.Helper()
	p, err := newPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Plan(budget)
	if err != nil {
		t.Fatalf("budget %g: fresh planner: %v", budget, err)
	}
	return pl
}

// chainOf returns the parametric program behind an LP planner.
func chainOf(t testing.TB, p Planner) *paramLP {
	t.Helper()
	switch p := p.(type) {
	case *LPNoFilter:
		return &p.paramLP
	case *LPFilter:
		return &p.paramLP
	case *ProofPlanner:
		return &p.paramLP
	}
	t.Fatalf("%T has no parametric program", p)
	return nil
}

// certifyChain checks the optimum the chain's last Plan rounded at
// budget. When that Plan solved, it KKT-certifies the solve: a
// re-solve from the chain's own basis must be a warm no-op, so the
// certified point is the one the Plan rounded. When it was a frontier
// hit, no solve ran, and the interpolated support must match a cold
// solve's within 1e-9.
func certifyChain(t testing.TB, p Planner, newPlanner func(Config) (Planner, error), cfg Config, budget float64, hit bool) {
	t.Helper()
	c := chainOf(t, p)
	if hit {
		vars, x := coldSupport(t, newPlanner, cfg, budget)
		for k, v := range c.front.vars {
			if d := math.Abs(c.front.x[v] - x[vars[k]]); d > 1e-9 {
				t.Fatalf("budget %g: interpolated support[%d] = %.17g, cold %.17g", budget, k, c.front.x[v], x[vars[k]])
			}
		}
		return
	}
	sol, err := c.solve(cfg, budget)
	if err != nil {
		t.Fatalf("budget %g: chain re-solve: %v", budget, err)
	}
	if !sol.Warm || sol.Pivots != 0 {
		t.Fatalf("budget %g: chain re-solve warm=%v pivots=%d, want a warm no-op", budget, sol.Warm, sol.Pivots)
	}
	if err := lp.CheckOptimal(c.model, sol, 1e-6); err != nil {
		t.Fatalf("budget %g: chain solution: %v", budget, err)
	}
}

// coldSupport cold-solves a fresh build of newPlanner's program at
// budget, with no workspace and no basis, and returns the program's
// support and the optimum.
func coldSupport(t testing.TB, newPlanner func(Config) (Planner, error), cfg Config, budget float64) ([]lp.VarID, []float64) {
	t.Helper()
	cfg.Obs, cfg.Trace, cfg.Span = nil, nil, nil
	p, err := newPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := chainOf(t, p)
	c.install(c.prog.build(cfg, budget))
	sol, err := c.model.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("budget %g: cold solve ended %v", budget, sol.Status)
	}
	return c.prog.support(nil), sol.X
}

// planHit plans budget on p and reports whether the plan was a
// frontier hit, read from the core.frontier_hits counter of reg, the
// registry p's Config carries.
func planHit(t testing.TB, p Planner, reg *obs.Registry, budget float64) (*plan.Plan, bool) {
	t.Helper()
	hits := reg.Counter("core.frontier_hits").Value()
	pl, err := p.Plan(budget)
	if err != nil {
		t.Fatalf("budget %g: %v", budget, err)
	}
	return pl, reg.Counter("core.frontier_hits").Value() > hits
}

// TestWarmDifferentialMatchesCold is the acceptance test for the
// parametric pipeline: a single planner serving a whole budget sweep
// through its warm basis chain and its frontier must emit
// bitwise-identical plans to a fresh planner per budget (rebuild plus
// cold solve), for all three LP planners, across seeds and a
// randomized budget order; every chain solution must carry a KKT
// certificate, and every frontier hit must interpolate a cold
// solve's optimum.
func TestWarmDifferentialMatchesCold(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{11, 22, 33} {
				nodes, k, nSamples := 25, 5, 6
				if tc.name == "LP-LF" {
					nodes, k, nSamples = 40, 8, 10
				}
				s := makeScenario(t, seed, nodes, k, nSamples)

				reg := obs.NewRegistry()
				warmCfg := s.cfg
				warmCfg.Obs = reg
				warm, err := tc.make(warmCfg)
				if err != nil {
					t.Fatal(err)
				}
				budgets := tc.budgets(s.cfg)
				if len(budgets) < 6 {
					t.Fatalf("need >= 6 budgets, have %d", len(budgets))
				}
				// Randomized sweep order: warm chains must not depend on a
				// monotone budget axis.
				rng := rand.New(rand.NewSource(seed * 1000003))
				rng.Shuffle(len(budgets), func(i, j int) {
					budgets[i], budgets[j] = budgets[j], budgets[i]
				})

				for _, budget := range budgets {
					wp, hit := planHit(t, warm, reg, budget)
					certifyChain(t, warm, tc.make, warmCfg, budget, hit)
					if cp := freshPlan(t, tc.make, s.cfg, budget); !plansEqual(wp, cp) {
						t.Errorf("seed %d budget %g: warm plan %v != cold plan %v",
							seed, budget, wp, cp)
					}
				}
			}
		})
	}
}

// TestWarmChainIsActuallyWarm pins that a budget sweep through one
// planner stays off the cold path: exactly one cold solve (the first
// call), and every other budget either a warm re-solve or a frontier
// hit, visible through the lp.* and core.frontier_hits counters.
func TestWarmChainIsActuallyWarm(t *testing.T) {
	s := makeScenario(t, 17, 40, 8, 10)
	reg := obs.NewRegistry()
	cfg := s.cfg
	cfg.Obs = reg
	p, err := NewLPNoFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{30, 55, 85, 120, 170, 240}
	for _, b := range budgets {
		if _, err := p.Plan(b); err != nil {
			t.Fatalf("budget %g: %v", b, err)
		}
	}
	colds := reg.Counter("lp.cold_solves").Value()
	warms := reg.Counter("lp.warm_resolves").Value()
	hits := reg.Counter("core.frontier_hits").Value()
	if colds != 1 {
		t.Errorf("cold solves = %d, want exactly 1 (the chain opener)", colds)
	}
	if want := int64(len(budgets) - 1); warms+hits != want {
		t.Errorf("warm re-solves %d + frontier hits %d = %d, want %d", warms, hits, warms+hits, want)
	}
	// The derived warm-hit rate must agree with the raw counters: with
	// no fallbacks, warm / (warm + cold) of this sweep.
	rate := reg.Gauge("lp.warm_hit_rate").Value()
	want := float64(warms) / float64(warms+colds)
	if diff := rate - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("lp.warm_hit_rate = %g, want %g", rate, want)
	}
}

// TestParametricRebuildOnSampleChange pins the cache key: mutating the
// sample window mid-chain must move the program with it (a slide here;
// see TestSlideMatchesFreshPlanner), and the chain must still match a
// fresh planner on the new window.
func TestParametricRebuildOnSampleChange(t *testing.T) {
	s := makeScenario(t, 29, 30, 6, 8)
	warm, err := NewLPNoFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, budget float64) {
		t.Helper()
		wp, err := warm.Plan(budget)
		if err != nil {
			t.Fatalf("%s: warm: %v", label, err)
		}
		if cp := freshPlan(t, newLPNoFilter, s.cfg, budget); !plansEqual(wp, cp) {
			t.Errorf("%s: warm plan %v != cold plan %v", label, wp, cp)
		}
	}
	check("before", 60)
	check("before", 110)

	// Slide the window: same Len going forward, different content.
	rng := rand.New(rand.NewSource(5150))
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(s.cfg.Net.Size()), rng)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.cfg.Samples.Gen()
	if err := s.cfg.Samples.AddAll(workload.Draw(src, 3)); err != nil {
		t.Fatal(err)
	}
	if s.cfg.Samples.Gen() == gen {
		t.Fatal("sample generation did not advance on Add")
	}
	check("after", 60)
	check("after", 110)
}

// TestParametricEmptyCandidates covers the degenerate program: when no
// non-root node ranks in the top k of any sample in the window, the
// planners return the empty plan without an LP. A 5-sample window
// slides into that state one root-topped sample at a time (every step
// but the last a warm slide) and back out, and every plan must match a
// fresh planner's.
func TestParametricEmptyCandidates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		make  func(Config) (Planner, error)
		empty func(Planner) bool
	}{
		{"LP-LF", newLPNoFilter, func(p Planner) bool { return p.(*LPNoFilter).model == nil }},
		{"LP+LF", newLPFilter, func(p Planner) bool { return p.(*LPFilter).model == nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := makeScenario(t, 3, 12, 1, 5)
			cfg := s.cfg
			n := cfg.Net.Size()
			set := sample.MustNewSet(n, 1, 5)
			for j := 0; j < s.cfg.Samples.Len(); j++ {
				if err := set.Add(s.cfg.Samples.Values(j)); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Samples = set
			p, err := tc.make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, wantEmpty bool) {
				t.Helper()
				for _, b := range []float64{10, 20} {
					got, err := p.Plan(b)
					if err != nil {
						t.Fatalf("%s, budget %g: %v", label, b, err)
					}
					if !bytes.Equal(got.Encode(), freshPlan(t, tc.make, cfg, b).Encode()) {
						t.Errorf("%s, budget %g: plan %v != fresh planner's", label, b, got)
					}
					if tc.empty(p) != wantEmpty {
						t.Fatalf("%s: empty program %v, want %v", label, tc.empty(p), wantEmpty)
					}
					if wantEmpty && got.Participants() != 1 {
						t.Errorf("%s, budget %g: empty program planned %v", label, b, got)
					}
				}
			}
			check("original window", false)
			// Force each new sample's top-1 onto the root; the empty plan
			// involves the root alone.
			for j := 0; j < 5; j++ {
				vals := make([]float64, n)
				vals[0] = 1000 + float64(j)
				if err := set.Add(vals); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d root-topped samples", j+1), j == 4)
			}
			// And back out: the window's samples top non-root nodes again.
			for j := 0; j < 2; j++ {
				if err := set.Add(s.truth[j]); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d samples out of the empty window", j+1), false)
			}
		})
	}
}

// TestWarmPlannerReuseAcrossKinds ensures each planner type owns an
// independent chain: interleaving two planners over the same Config
// must not cross-contaminate their cached programs.
func TestWarmPlannerReuseAcrossKinds(t *testing.T) {
	s := makeScenario(t, 41, 25, 5, 6)
	lplf, err := NewLPNoFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	lpf, err := NewLPFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, budget := range []float64{40, 70, 110, 180} {
		label := fmt.Sprintf("step %d budget %g", i, budget)
		wp, err := lplf.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(wp, freshPlan(t, newLPNoFilter, s.cfg, budget)) {
			t.Errorf("%s: LP-LF warm != cold", label)
		}
		wf, err := lpf.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(wf, freshPlan(t, newLPFilter, s.cfg, budget)) {
			t.Errorf("%s: LP+LF warm != cold", label)
		}
	}
}

// naiveCost is the collection cost of the NAIVE-k plan, the scale of
// the budget axes below.
func naiveCost(t *testing.T, cfg Config) float64 {
	t.Helper()
	naive, err := NaiveKPlan(cfg.Net, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	return naive.CollectionCost(cfg.Net, cfg.Costs)
}

// TestChainBreakRestartsCold drives a chain break: a long downward
// budget jump re-solved under a MaxIters cap that the dual recovery
// outruns but a cold solve fits in. lp restarts it cold, so the break
// must surface as one lp.warm_fallbacks, return a certified optimum
// whose plan matches a fresh planner's, and leave the chain armed: the
// next Plan is a warm re-solve, not a second cold solve. Uncapped, the
// long jumps of the seed-10 scenario stay warm.
func TestChainBreakRestartsCold(t *testing.T) {
	t.Run("uncapped jumps stay warm", func(t *testing.T) {
		s := makeScenario(t, 10, 25, 5, 6)
		reg := obs.NewRegistry()
		cfg := s.cfg
		cfg.Obs = reg
		p, err := NewLPFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := naiveCost(t, cfg)
		if _, err := p.Plan(0.05 * full); err != nil {
			t.Fatal(err)
		}
		// The jumps solve through the chain directly: a Plan could
		// serve a budget from the frontier instead.
		for _, b := range []float64{0.8 * full, 0.05 * full} {
			if _, err := p.solve(cfg, b); err != nil {
				t.Fatalf("budget %g: %v", b, err)
			}
		}
		if got := reg.Counter("lp.warm_fallbacks").Value(); got != 0 {
			t.Errorf("lp.warm_fallbacks = %d over low → high → low, want 0", got)
		}
		if got := reg.Counter("lp.warm_resolves").Value(); got != 2 {
			t.Errorf("lp.warm_resolves = %d over low → high → low, want 2", got)
		}
	})

	// On this scenario the recovery from the high-budget basis takes
	// more iterations than a cold solve of the low budget, so a cap at
	// the cold solve's count breaks the warm attempt alone.
	s := makeScenario(t, 15, 60, 5, 6)
	reg := obs.NewRegistry()
	cfg := s.cfg
	cfg.Obs = reg
	full := naiveCost(t, cfg)
	low, high := 0.002*full, 0.8*full
	coldIters := func() int {
		coldReg := obs.NewRegistry()
		coldCfg := s.cfg
		coldCfg.Obs = coldReg
		fresh, err := NewLPFilter(coldCfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Plan(low); err != nil {
			t.Fatal(err)
		}
		return int(coldReg.Counter("lp.iterations").Value())
	}()
	twin, err := NewLPFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Plan(high); err != nil {
		t.Fatal(err)
	}
	warm, err := twin.solve(s.cfg, low)
	if err != nil || !warm.Warm {
		t.Fatalf("uncapped jump: %v, warm %v", err, warm.Warm)
	}
	if warm.Iterations <= coldIters {
		t.Fatalf("the jump recovers in %d iterations, within the cold solve's %d: no cap breaks it alone", warm.Iterations, coldIters)
	}

	p, err := NewLPFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(high); err != nil {
		t.Fatalf("budget %g: %v", high, err)
	}
	// The break, solved through the chain directly so its own solution
	// is in hand.
	// lp checks the cap before the pricing pass that proves
	// optimality, so a solve of n iterations needs a cap of n+1.
	capped := cfg
	capped.LP.MaxIters = coldIters + 1
	fallbacks := reg.Counter("lp.warm_fallbacks").Value()
	sol, err := p.solve(capped, low)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("lp.warm_fallbacks").Value() - fallbacks; got != 1 {
		t.Fatalf("lp.warm_fallbacks moved by %d at the break, want 1", got)
	}
	if got := reg.Counter("lp.status.iteration-limit").Value(); got != 0 {
		t.Errorf("lp.status.iteration-limit = %d: the warm failure leaked out of lp", got)
	}
	if err := lp.CheckOptimal(p.model, sol, 1e-6); err != nil {
		t.Fatalf("chain-break solution: %v", err)
	}

	colds := reg.Counter("lp.cold_solves").Value()
	for _, b := range []float64{low, 0.3 * full} {
		wp, err := p.Plan(b)
		if err != nil {
			t.Fatalf("budget %g: %v", b, err)
		}
		if !plansEqual(wp, freshPlan(t, newLPFilter, s.cfg, b)) {
			t.Errorf("budget %g: plan after the break != fresh planner's plan", b)
		}
	}
	if got := reg.Counter("lp.cold_solves").Value() - colds; got != 0 {
		t.Errorf("lp.cold_solves moved by %d after the break, want 0 (the chain re-armed)", got)
	}
}

// TestLongBudgetJumpsStayWarm walks LP+LF chains through uniformly
// random budgets in [0.05, 0.8]×NAIVE-k, so most steps are long jumps
// in either direction. Every re-solve must recover warm (no
// lp.warm_fallbacks) within a bounded iteration count, and spot budgets
// must plan byte-equal to a fresh planner's.
func TestLongBudgetJumpsStayWarm(t *testing.T) {
	// maxWarmIters bounds one warm re-solve. The longest recovery on
	// these chains takes 71 iterations; a stalled one runs into the
	// thousands.
	const maxWarmIters = 200
	for _, n := range []int{25, 60} {
		for seed := int64(1); seed <= 10; seed++ {
			s := makeScenario(t, seed, n, 5, 8)
			reg := obs.NewRegistry()
			cfg := s.cfg
			cfg.Obs = reg
			p, err := NewLPFilter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			full := naiveCost(t, cfg)
			rng := rand.New(rand.NewSource(seed))
			worst := 0
			for i := 0; i < 40; i++ {
				b := (0.05 + 0.75*rng.Float64()) * full
				if i == 0 {
					if _, err := p.Plan(b); err != nil {
						t.Fatal(err)
					}
					continue
				}
				sol, err := p.solve(cfg, b)
				if err != nil {
					t.Fatal(err)
				}
				if !sol.Warm {
					t.Fatalf("n %d seed %d step %d: budget %.4g re-solved cold", n, seed, i, b)
				}
				worst = max(worst, sol.Iterations)
				if i%8 == 0 {
					wp, err := p.Plan(b)
					if err != nil {
						t.Fatal(err)
					}
					if !plansEqual(wp, freshPlan(t, newLPFilter, s.cfg, b)) {
						t.Errorf("n %d seed %d step %d: budget %.4g plans differently from a fresh planner", n, seed, i, b)
					}
				}
			}
			if got := reg.Counter("lp.warm_fallbacks").Value(); got != 0 {
				t.Errorf("n %d seed %d: lp.warm_fallbacks = %d, want 0", n, seed, got)
			}
			if worst > maxWarmIters {
				t.Errorf("n %d seed %d: a warm re-solve took %d iterations, want <= %d", n, seed, worst, maxWarmIters)
			}
			t.Logf("n %d seed %d: longest warm re-solve %d iterations", n, seed, worst)
		}
	}
}

// TestRoundBandwidthHalfIntegers pins the rounding of LP bandwidths at
// a half-integer: k+0.5 and the one-ulp-low k+0.5 a different pivot
// path can return both round up, so the solver's last-bit noise cannot
// pick the plan, while a value genuinely below the half rounds down.
func TestRoundBandwidthHalfIntegers(t *testing.T) {
	for k := 0; k <= 40; k++ {
		half := float64(k) + 0.5
		cases := []struct {
			x    float64
			want int
		}{
			{half, k + 1},
			{math.Nextafter(half, 0), k + 1},
			{half - 1e-6, k},
			{float64(k), k},
			{float64(k) + 1e-12, k},
			{float64(k) - 1e-12, k},
		}
		for _, c := range cases {
			if got := roundBandwidth(c.x); got != c.want {
				t.Errorf("roundBandwidth(%.17g) = %d, want %d", c.x, got, c.want)
			}
		}
	}
}
