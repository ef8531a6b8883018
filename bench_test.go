// Package prospector's root benchmark suite regenerates every figure
// of the paper at benchmark scale and measures the substrates the
// evaluation depends on (LP solve times, planning, execution), plus
// the ablation benches DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package prospector

import (
	"math/rand"
	"testing"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/experiments"
	"prospector/internal/lp"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/query"
	"prospector/internal/sample"
	"prospector/internal/sim"
	"prospector/internal/workload"
)

// --- One bench per paper figure / study -----------------------------

func BenchmarkFigure3(b *testing.B) {
	cfg := experiments.Figure3Config{
		Nodes: 40, K: 8, Samples: 10, Eval: 5, Trials: 1, Seed: 1,
		BudgetFracs:   []float64{0.1, 0.3, 0.6},
		AccuracySteps: []float64{0.5, 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	cfg := experiments.Figure4Config{
		Nodes: 30, K: 6, Samples: 8, Eval: 4, Trials: 1, Seed: 2,
		StdDevs: []float64{0.5, 4, 10}, BudgetFrac: 0.3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	cfg := experiments.ZonesConfig{
		Zones: 4, K: 6, Background: 12, Samples: 8, Eval: 4, Trials: 1, Seed: 3,
		Territorial: true, BudgetFracs: []float64{0.15, 0.4},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := experiments.ZonesConfig{
		Zones: 4, K: 4, Background: 8, Samples: 6, Eval: 3, Trials: 1, Seed: 4,
		Territorial: true, FixedBudgetFrac: 0.3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	cfg := experiments.Figure8Config{
		Nodes: 18, K: 4, Samples: 5, Eval: 3, Trials: 1, Seed: 5,
		BudgetMults: []float64{1.05, 1.4},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	cfg := experiments.DefaultFigure9Config()
	cfg.Trials = 1
	cfg.Lab.Epochs = 50
	cfg.SampleEpochs, cfg.SampleWindow, cfg.Eval = 15, 10, 8
	cfg.BudgetFracs = []float64{0.15, 0.4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Figure9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleSizeStudy(b *testing.B) {
	cfg := experiments.SampleSizeConfig{
		Nodes: 24, K: 5, Eval: 4, Trials: 1, Seed: 6,
		SampleCounts: []int{1, 10, 25}, BudgetFrac: 0.3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.SampleSizeStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstallCostStudy(b *testing.B) {
	cfg := experiments.InstallCostConfig{
		Nodes: 24, K: 5, Samples: 8, Trials: 1, Seed: 7,
		BudgetFracs: []float64{0.2, 0.4},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.InstallCostStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- LP solve-time study (the paper's in-text CPLEX timings) --------

type benchScenario struct {
	cfg core.Config
	env exec.Env
}

func benchGaussian(b testing.TB, seed int64, nodes, k, samples int) *benchScenario {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		b.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, samples)); err != nil {
		b.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	return &benchScenario{
		cfg: core.Config{Net: net, Costs: costs, Samples: set, K: k},
		env: exec.Env{Net: net, Costs: costs},
	}
}

func benchPlanner(b *testing.B, mk func(core.Config) (core.Planner, error), nodes, k, samples int, budgetFrac float64) {
	b.Helper()
	s := benchGaussian(b, 11, nodes, k, samples)
	naive, err := core.NaiveKPlan(s.cfg.Net, k)
	if err != nil {
		b.Fatal(err)
	}
	budget := budgetFrac * naive.CollectionCost(s.cfg.Net, s.cfg.Costs)
	benchFreshPlans(b, func() (core.Planner, error) { return mk(s.cfg) }, budget)
}

// benchFreshPlans times one fresh planner's first Plan per op: a reused
// planner would serve every later call of the same budget from its
// frontier, with no solve. One untimed plan first warms code and heap,
// so -benchtime 1x reads the same op as longer runs.
func benchFreshPlans(b *testing.B, mk func() (core.Planner, error), budget float64) {
	b.Helper()
	plan := func() {
		pl, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Plan(budget); err != nil {
			b.Fatal(err)
		}
	}
	plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
}

func BenchmarkLPNoFilterPlan60(b *testing.B) {
	benchPlanner(b, func(c core.Config) (core.Planner, error) { return core.NewLPNoFilter(c) }, 60, 10, 15, 0.3)
}

func BenchmarkLPNoFilterPlan120(b *testing.B) {
	benchPlanner(b, func(c core.Config) (core.Planner, error) { return core.NewLPNoFilter(c) }, 120, 20, 20, 0.3)
}

func BenchmarkLPFilterPlan60(b *testing.B) {
	benchPlanner(b, func(c core.Config) (core.Planner, error) { return core.NewLPFilter(c) }, 60, 10, 15, 0.3)
}

func BenchmarkLPFilterPlan120(b *testing.B) {
	benchPlanner(b, func(c core.Config) (core.Planner, error) { return core.NewLPFilter(c) }, 120, 20, 20, 0.3)
}

func BenchmarkProofPlan30(b *testing.B) {
	s := benchGaussian(b, 12, 30, 6, 6)
	pp, err := core.NewProofPlanner(s.cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchFreshPlans(b, func() (core.Planner, error) { return core.NewProofPlanner(s.cfg) }, pp.MinBudget()*1.4)
}

// benchBudgetSweep runs one planner across a whole Figure-3-style
// budget axis per iteration: the workload the parametric pipeline
// targets. Warm builds one planner per iteration, so each sweep pays
// one build and cold solve and then re-solves warm from the chained
// basis (a planner kept across iterations would serve every later
// sweep from its budget frontier, and the figure would depend on
// -benchtime); cold builds a fresh planner per Plan call, so every
// call rebuilds and cold-solves.
func benchBudgetSweep(b *testing.B, cold bool) {
	b.Helper()
	s := benchGaussian(b, 27, 60, 10, 15)
	naive, err := core.NaiveKPlan(s.cfg.Net, 10)
	if err != nil {
		b.Fatal(err)
	}
	base := naive.CollectionCost(s.cfg.Net, s.cfg.Costs)
	fracs := []float64{0.06, 0.1, 0.16, 0.24, 0.34, 0.46, 0.6, 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pl *core.LPNoFilter
		for j, f := range fracs {
			if cold || j == 0 {
				if pl, err = core.NewLPNoFilter(s.cfg); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := pl.Plan(f * base); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBudgetSweepWarm(b *testing.B) { benchBudgetSweep(b, false) }

func BenchmarkBudgetSweepCold(b *testing.B) { benchBudgetSweep(b, true) }

// BenchmarkWarmResolveSteadyState pins the parametric hot path at the
// solver level: mutate the budget row, warm re-solve from the chained
// basis, all scratch served from the Workspace. The allocs/op column
// must read 0 — any regression here rebuilds solver state per call.
// (Planner-level Plan calls still allocate in rounding/repair; the
// zero-alloc contract is lp.Solve's.)
func BenchmarkWarmResolveSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	m := lp.NewModel()
	m.Maximize()
	var ids []lp.VarID
	for j := 0; j < 120; j++ {
		ids = append(ids, m.MustVar(0, 1, rng.Float64(), ""))
	}
	row := -1
	for r := 0; r < 80; r++ {
		var terms []lp.Term
		for _, id := range ids {
			if rng.Float64() < 0.15 {
				terms = append(terms, lp.Term{Var: id, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: ids[0], Coef: 1})
		}
		if got := m.MustConstr(terms, lp.LE, 2+rng.Float64()); row < 0 {
			row = got
		}
	}
	ws := lp.NewWorkspace()
	opts := lp.Options{Workspace: ws, KeepBasis: true}
	sol, err := m.Solve(opts)
	if err != nil {
		b.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		b.Fatalf("cold solve ended %v", sol.Status)
	}
	basis := sol.Basis
	rhs := []float64{2.2, 2.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SetRHS(row, rhs[i%2]); err != nil {
			b.Fatal(err)
		}
		opts.Warm = basis
		sol, err := m.Solve(opts)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("warm solve ended %v", sol.Status)
		}
		basis = sol.Basis
	}
}

// BenchmarkProofStrictC3 ablates the strict c.3 linearization against
// the paper's omit-the-row formulation. The rows change the LP, so each
// op is a fresh planner's first Plan, as in the solve-time study.
func BenchmarkProofStrictC3(b *testing.B) {
	for _, v := range []struct {
		name string
		mk   func(core.Config) (*core.ProofPlanner, error)
	}{
		{"Strict", core.NewProofPlanner},
		{"PaperC3", core.NewProofPlannerPaperC3},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := benchGaussian(b, 14, 24, 5, 5)
			pp, err := v.mk(s.cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchFreshPlans(b, func() (core.Planner, error) { return v.mk(s.cfg) }, pp.MinBudget()*1.4)
		})
	}
}

// BenchmarkRoundingRepair ablates the budget repair + refill pass.
func BenchmarkRoundingRepair(b *testing.B) {
	for _, v := range []struct {
		name    string
		disable bool
	}{{"WithRepair", false}, {"PlainRounding", true}} {
		b.Run(v.name, func(b *testing.B) {
			s := benchGaussian(b, 15, 60, 10, 12)
			s.cfg.DisableRepair = v.disable
			pl, err := core.NewLPFilter(s.cfg)
			if err != nil {
				b.Fatal(err)
			}
			naive, err := core.NaiveKPlan(s.cfg.Net, 10)
			if err != nil {
				b.Fatal(err)
			}
			budget := 0.3 * naive.CollectionCost(s.cfg.Net, s.cfg.Costs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Plan(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Execution-engine microbenches -----------------------------------

func BenchmarkExecFiltering(b *testing.B) {
	s := benchGaussian(b, 16, 100, 15, 10)
	pl, err := core.NewLPFilter(s.cfg)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := core.NaiveKPlan(s.cfg.Net, 15)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pl.Plan(0.3 * naive.CollectionCost(s.cfg.Net, s.cfg.Costs))
	if err != nil {
		b.Fatal(err)
	}
	vals := s.cfg.Samples.Values(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(s.env, p, vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecProofAndMopUp(b *testing.B) {
	s := benchGaussian(b, 17, 40, 8, 6)
	pp, err := core.NewProofPlanner(s.cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pp.Plan(pp.MinBudget() * 1.2)
	if err != nil {
		b.Fatal(err)
	}
	vals := s.cfg.Samples.Values(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(s.env, p, vals)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.State.MopUp(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	set := sample.MustNewSet(200, 20, 50)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Add(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := network.Build(network.DefaultBuildConfig(200), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures the discrete-event simulator against the
// analytic executor on the same plan.
func BenchmarkSimRun(b *testing.B) {
	s := benchGaussian(b, 22, 80, 10, 6)
	p, err := core.NaiveKPlan(s.cfg.Net, 10)
	if err != nil {
		b.Fatal(err)
	}
	vals := s.cfg.Samples.Values(0)
	cfg := sim.DefaultConfig(s.cfg.Net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, p, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParse measures the declarative front end.
func BenchmarkQueryParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse("SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF SAMPLES 20"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPFilterPlan200 exercises the solver at the paper's full
// evaluation scale (hundreds of nodes, 25 samples); the paper reports
// CPLEX needing seconds-to-tens-of-seconds here.
func BenchmarkLPFilterPlan200(b *testing.B) {
	if testing.Short() {
		b.Skip("multi-second LP; skipped in -short")
	}
	benchPlanner(b, func(c core.Config) (core.Planner, error) { return core.NewLPFilter(c) }, 200, 25, 25, 0.3)
}
