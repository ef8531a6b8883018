package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// slideStats counts what a sliding planner's program went through.
type slideStats struct {
	plans, slides int
	// colds counts plans that solved cold; expected the ones that must
	// (a run's first plan, and slides keeping no sample).
	colds, expected int
	// Edges a warm slide created, or reopened after fixing them at zero.
	edgesCreated, edgesReopened int
}

// edgeVars returns the per-edge variables of a sliding planner's
// program and which edges its window currently needs.
func edgeVars(p Planner) (ys []lp.VarID, needed []bool) {
	switch p := p.(type) {
	case *LPNoFilter:
		prog := p.prog.(*lplfProgram)
		return prog.ys, prog.needed
	case *LPFilter:
		prog := p.prog.(*lpfilterProgram)
		needed = make([]bool, len(prog.caps))
		for v, c := range prog.caps {
			needed[v] = c > 0
		}
		return prog.ys, needed
	}
	return nil, nil
}

// runSlides drives one planner over a sliding window and checks every
// plan, byte for byte, against a fresh planner's cold plan of the same
// window. Between plans the window moves by a d drawn from slides; a
// few samples lift random nodes far above the field so that new
// candidates, and edges no earlier sample needed, keep appearing.
func runSlides(t *testing.T, make func(Config) (Planner, error), seed int64, window, steps int, slides []int, st *slideStats) {
	t.Helper()
	const nodes, k = 25, 4
	rng := rand.New(rand.NewSource(seed))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	next := func() []float64 {
		v := src.Next()
		if rng.Intn(6) == 0 {
			for b := 0; b < 1+rng.Intn(3); b++ {
				v[rng.Intn(nodes)] += 40
			}
		}
		return v
	}
	set := sample.MustNewSet(nodes, k, window)
	if err := set.AddAll(workload.Draw(src, max(window, 6))); err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	reg := obs.NewRegistry()
	cfg := Config{Net: net, Costs: costs, Samples: set, K: k, Obs: reg}
	p, err := make(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveKPlan(net, k)
	if err != nil {
		t.Fatal(err)
	}
	full := naive.CollectionCost(net, costs)
	budgets := []float64{0.15 * full, 0.3 * full, 0.55 * full}
	fresh := cfg
	fresh.Obs = nil
	for step := 0; step < steps; step++ {
		rebuild := step == 0
		if step > 0 {
			d := slides[rng.Intn(len(slides))]
			for i := 0; i < d; i++ {
				if err := set.Add(next()); err != nil {
					t.Fatal(err)
				}
			}
			st.slides++
			rebuild = window > 0 && d >= window
		}
		if rebuild {
			st.expected++
		}
		ys, needed := edgeVars(p)
		ys, needed = append([]lp.VarID(nil), ys...), append([]bool(nil), needed...)
		colds := reg.Counter("lp.cold_solves").Value()
		budget := budgets[rng.Intn(len(budgets))]
		got, err := p.Plan(budget)
		if err != nil {
			t.Fatalf("seed %d step %d: sliding planner: %v", seed, step, err)
		}
		if reg.Counter("lp.cold_solves").Value() > colds {
			st.colds++
		}
		if nys, nneeded := edgeVars(p); !rebuild && len(ys) == len(nys) {
			for v := range ys {
				switch {
				case ys[v] < 0 && nys[v] >= 0:
					st.edgesCreated++
				case ys[v] >= 0 && !needed[v] && nneeded[v]:
					st.edgesReopened++
				}
			}
		}
		want := freshPlan(t, make, fresh, budget)
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("seed %d step %d budget %g: sliding plan %v != fresh plan %v", seed, step, budget, got, want)
		}
		st.plans++
	}
}

// TestSlideMatchesFreshPlanner is the differential test of the sliding
// program: after every slide of d = 1, 2, 5, S-1, S or S+1 samples,
// LP-LF and LP+LF must return the same plan, byte for byte, as a
// fresh planner built cold on the same window, across deployment
// seeds, and also on an unbounded (append-only) window. Only the
// slides that leave no sample in common (d >= S) may solve cold.
func TestSlideMatchesFreshPlanner(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(Config) (Planner, error)
	}{
		{"LP-LF", newLPNoFilter},
		{"LP+LF", newLPFilter},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const S = 8
			var st slideStats
			for seed := int64(1); seed <= 4; seed++ {
				runSlides(t, tc.make, seed, S, 300, []int{1, 2, 5, S - 1, S, S + 1}, &st)
			}
			var grow slideStats
			for seed := int64(1); seed <= 4; seed++ {
				runSlides(t, tc.make, seed, 0, 40, []int{1, 2}, &grow)
			}
			t.Logf("bounded %+v; unbounded %+v", st, grow)
			if st.edgesCreated == 0 || st.edgesReopened == 0 || grow.edgesCreated == 0 {
				t.Errorf("no warm slide created or reopened an edge (bounded %+v, unbounded %+v)", st, grow)
			}
			// A slide that keeps a sample stays warm; allow a warm start
			// to fall back cold on one slide in five hundred.
			for _, s := range []slideStats{st, grow} {
				if s.colds < s.expected || s.colds > s.expected+s.slides/500 {
					t.Errorf("%d of %d plans solved cold, want %d (+%d)", s.colds, s.plans, s.expected, s.slides/500)
				}
			}
		})
	}
}

// slideChain is an LP+LF chain shaped like the window_replan benchmark
// (60 nodes, k = 10, a window of 15 samples, a fixed budget of 0.3 x
// NAIVE-k) after its first, cold plan: each slide adds one sample.
type slideChain struct {
	p      Planner
	set    *sample.Set
	src    workload.Source
	budget float64
	reg    *obs.Registry
}

func newSlideChain(t *testing.T) *slideChain {
	t.Helper()
	const nodes, k, window = 60, 10, 15
	rng := rand.New(rand.NewSource(5))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, window)
	if err := set.AddAll(workload.Draw(src, window)); err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	naive, err := NaiveKPlan(net, k)
	if err != nil {
		t.Fatal(err)
	}
	c := &slideChain{set: set, src: src, budget: 0.3 * naive.CollectionCost(net, costs), reg: obs.NewRegistry()}
	c.p, err = NewLPFilter(Config{Net: net, Costs: costs, Samples: set, K: k, Obs: c.reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.p.Plan(c.budget); err != nil {
		t.Fatal(err)
	}
	return c
}

// slide adds the next sample and plans.
func (c *slideChain) slide(t *testing.T, step int) {
	t.Helper()
	if err := c.set.Add(c.src.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.p.Plan(c.budget); err != nil {
		t.Fatalf("slide %d: %v", step, err)
	}
}

// TestSlideSolvesOnce pins the cost of a slide on the slideChain: the
// slide only edits the model, so each plan runs exactly one LP solve,
// and that solve stays warm. Every solve follows a slide, so none is
// ranged: the planner ends with no budget frontier piece and no hit.
func TestSlideSolvesOnce(t *testing.T) {
	const slides = 300
	c := newSlideChain(t)
	solves, colds := c.reg.Counter("lp.solves"), c.reg.Counter("lp.cold_solves")
	fallbacks := c.reg.Counter("lp.warm_fallbacks")
	if solves.Value() != 1 || colds.Value() != 1 {
		t.Fatalf("first plan: %d solves, %d cold; want 1, 1", solves.Value(), colds.Value())
	}
	for step := 1; step <= slides; step++ {
		before := solves.Value()
		c.slide(t, step)
		if n := solves.Value() - before; n != 1 {
			t.Fatalf("slide %d ran %d LP solves, want 1", step, n)
		}
	}
	if colds.Value() != 1 || fallbacks.Value() != 0 {
		t.Errorf("%d slides: %d cold solves after the first, %d warm fallbacks; want 0, 0",
			slides, colds.Value()-1, fallbacks.Value())
	}
	if n := len(chainOf(t, c.p).front.pieces); n != 0 {
		t.Errorf("%d frontier pieces after %d slides, want 0", n, slides)
	}
	if hits := c.reg.Counter("core.frontier_hits").Value(); hits != 0 {
		t.Errorf("%d frontier hits over %d slides, want 0", hits, slides)
	}
}

// TestSlideAllocBytes bounds what the planner allocates per slide on
// the slideChain, the sample set's own appends excluded: the model
// edits, the warm solve and the rounding together stay under 8 KB.
func TestSlideAllocBytes(t *testing.T) {
	const warmup, slides, limit = 50, 200, 8 << 10
	c := newSlideChain(t)
	for step := 1; step <= warmup; step++ {
		c.slide(t, step)
	}
	var before, after runtime.MemStats
	var planned uint64
	for step := 1; step <= slides; step++ {
		if err := c.set.Add(c.src.Next()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := c.p.Plan(c.budget); err != nil {
			t.Fatalf("slide %d: %v", step, err)
		}
		runtime.ReadMemStats(&after)
		planned += after.TotalAlloc - before.TotalAlloc
	}
	if per := planned / slides; per >= limit {
		t.Errorf("the planner allocates %d B per slide, want < %d", per, limit)
	} else {
		t.Logf("%d B per slide", per)
	}
}
