// Cross-module integration tests: full pipelines from deployment
// through sampling, planning, execution, and verification, combining
// modules the way downstream users would.
package prospector

import (
	"math"
	"math/rand"
	"testing"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// TestExactAgreesWithNaiveBaselines cross-checks three independent
// exact algorithms (PROSPECTOR EXACT, NAIVE-k, NAIVE-1) on the same
// epochs: all must return identical answers.
func TestExactAgreesWithNaiveBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		nodes := 25 + rng.Intn(20)
		k := 3 + rng.Intn(6)
		net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
		if err != nil {
			t.Fatal(err)
		}
		set := sample.MustNewSet(nodes, k, 0)
		if err := set.AddAll(workload.Draw(src, 6)); err != nil {
			t.Fatal(err)
		}
		costs := plan.NewCosts(net, energy.DefaultModel())
		cfg := core.Config{Net: net, Costs: costs, Samples: set, K: k}
		env := exec.Env{Net: net, Costs: costs}

		ex, err := core.NewExact(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exPlan, err := ex.Planner().Plan(ex.MinPhase1Budget() * 1.3)
		if err != nil {
			t.Fatal(err)
		}
		nk, err := core.NaiveKPlan(net, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := src.Next()

		exRes, err := ex.RunWithPlan(env, exPlan, truth)
		if err != nil {
			t.Fatal(err)
		}
		nkRes, err := exec.Run(env, nk, truth)
		if err != nil {
			t.Fatal(err)
		}
		n1Res, err := exec.NaiveBatch(env, truth, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			a := exRes.Answer[i].Node
			b := nkRes.Returned[i].Node
			c := n1Res.Returned[i].Node
			if a != b || b != c {
				t.Fatalf("trial %d rank %d: Exact=%d NaiveK=%d Naive1=%d", trial, i, a, b, c)
			}
		}
	}
}

// TestPipelineUnderFailures runs planning with failure-inflated costs
// and execution with simulated reroutes; results must stay exact for
// proof plans (reliable protocol) and the energy ledger must grow.
func TestPipelineUnderFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const (
		nodes = 30
		k     = 5
	)
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, 6)); err != nil {
		t.Fatal(err)
	}
	failProb := make([]float64, nodes)
	for i := 1; i < nodes; i++ {
		failProb[i] = 0.3
	}
	const reroute = 0.8
	model := energy.DefaultModel()
	planCosts := plan.NewCosts(net, model)
	if err := planCosts.InflateForFailures(failProb, reroute); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Net: net, Costs: planCosts, Samples: set, K: k}
	ex, err := core.NewExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ex.Planner().Plan(ex.MinPhase1Budget() * 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cleanEnv := exec.Env{Net: net, Costs: plan.NewCosts(net, model)}
	faultyEnv := exec.Env{
		Net:   net,
		Costs: plan.NewCosts(net, model),
		Failures: &exec.FailureModel{
			Prob: failProb, RerouteFactor: reroute, Rng: rand.New(rand.NewSource(33)),
		},
	}
	truth := src.Next()
	clean, err := ex.RunWithPlan(cleanEnv, p, truth)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := ex.RunWithPlan(faultyEnv, p, truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Answer {
		if clean.Answer[i].Node != faulty.Answer[i].Node {
			t.Fatalf("failures changed the exact answer at rank %d", i)
		}
	}
	if faulty.Total() <= clean.Total() {
		t.Errorf("failure run cost %.1f not above clean %.1f", faulty.Total(), clean.Total())
	}
	// Planning saw inflated costs: the plan's static cost under the
	// inflated table exceeds its cost under the base table.
	if p.CollectionCost(net, planCosts) <= p.CollectionCost(net, cleanEnv.Costs) {
		t.Error("cost inflation had no effect")
	}
}

// TestCollectorDrivenPipeline feeds a stream through the
// exploration/exploitation collector and plans from whatever window it
// gathered — the deployment workflow of Section 3.
func TestCollectorDrivenPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const (
		nodes = 30
		k     = 6
	)
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	model := energy.DefaultModel()
	set := sample.MustNewSet(nodes, k, 10)
	col, err := sample.NewCollector(set, net, model, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 40; e++ {
		if _, err := col.Observe(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if set.Len() == 0 {
		t.Fatal("collector gathered nothing at rate 0.4 over 40 epochs")
	}
	if set.Len() > 10 {
		t.Fatalf("window overflow: %d", set.Len())
	}
	if col.EnergySpent() <= 0 {
		t.Error("sampling energy not accounted")
	}
	costs := plan.NewCosts(net, model)
	cfg := core.Config{Net: net, Costs: costs, Samples: set, K: k}
	lf, err := core.NewLPFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nk, err := core.NaiveKPlan(net, k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lf.Plan(0.4 * nk.CollectionCost(net, costs))
	if err != nil {
		t.Fatal(err)
	}
	env := exec.Env{Net: net, Costs: costs}
	acc := 0.0
	const epochs = 8
	for e := 0; e < epochs; e++ {
		truth := src.Next()
		res, err := exec.Run(env, p, truth)
		if err != nil {
			t.Fatal(err)
		}
		acc += res.Accuracy(truth, k)
	}
	if acc/epochs < 0.4 {
		t.Errorf("collector-driven plan accuracy %.2f", acc/epochs)
	}
}

// TestIntelLabEndToEnd replays the Figure 9 pipeline on the synthetic
// lab data at test scale and sanity-checks the paper's headline claim:
// approximate planning is several times cheaper than NAIVE-k at high
// accuracy.
func TestIntelLabEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	labCfg := workload.DefaultIntelLabConfig()
	labCfg.Epochs = 80
	lab, err := workload.NewIntelLab(labCfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := lab.Network()
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	set := sample.MustNewSet(lab.Size(), k, 15)
	for e := 0; e < 30; e++ {
		if err := set.Add(lab.Epoch(e)); err != nil {
			t.Fatal(err)
		}
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	cfg := core.Config{Net: net, Costs: costs, Samples: set, K: k}
	env := exec.Env{Net: net, Costs: costs}
	nk, err := core.NaiveKPlan(net, k)
	if err != nil {
		t.Fatal(err)
	}
	naiveCost := nk.CollectionCost(net, costs)
	lp, err := core.NewLPNoFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lp.Plan(0.3 * naiveCost)
	if err != nil {
		t.Fatal(err)
	}
	acc, cost := 0.0, 0.0
	const epochs = 20
	for e := 30; e < 30+epochs; e++ {
		truth := lab.Epoch(e)
		res, err := exec.Run(env, p, truth)
		if err != nil {
			t.Fatal(err)
		}
		acc += res.Accuracy(truth, k)
		cost += res.Ledger.Total()
	}
	acc /= epochs
	cost /= epochs
	if acc < 0.7 {
		t.Errorf("lab accuracy %.2f below 0.7 at 30%% budget", acc)
	}
	if ratio := naiveCost / cost; ratio < 2 {
		t.Errorf("Naive-k only %.1fx the approximate cost", ratio)
	}
}

// TestDeterminism: identical seeds must give identical plans and
// executions across the whole pipeline.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		rng := rand.New(rand.NewSource(36))
		net, err := network.Build(network.DefaultBuildConfig(30), rng)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(30), rng)
		if err != nil {
			t.Fatal(err)
		}
		set := sample.MustNewSet(30, 5, 0)
		if err := set.AddAll(workload.Draw(src, 8)); err != nil {
			t.Fatal(err)
		}
		costs := plan.NewCosts(net, energy.DefaultModel())
		cfg := core.Config{Net: net, Costs: costs, Samples: set, K: 5}
		lf, err := core.NewLPFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lf.Plan(30)
		if err != nil {
			t.Fatal(err)
		}
		truth := src.Next()
		res, err := exec.Run(exec.Env{Net: net, Costs: costs}, p, truth)
		if err != nil {
			t.Fatal(err)
		}
		return res.Ledger.Total(), res.Accuracy(truth, 5)
	}
	c1, a1 := run()
	c2, a2 := run()
	if math.Abs(c1-c2) > 1e-12 || math.Abs(a1-a2) > 1e-12 {
		t.Errorf("non-deterministic pipeline: (%g,%g) vs (%g,%g)", c1, a1, c2, a2)
	}
}

// TestRepairAndReplan exercises the permanent-failure workflow of
// Section 4.4: nodes die, the tree is rebuilt without them, the sample
// window is projected onto the survivors, and planning resumes.
func TestRepairAndReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cfgNet := network.DefaultBuildConfig(40)
	net, err := network.Build(cfgNet, rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	set := sample.MustNewSet(40, k, 0)
	if err := set.AddAll(workload.Draw(src, 10)); err != nil {
		t.Fatal(err)
	}
	// Three nodes fail permanently.
	dead := []network.NodeID{5, 17, 29}
	repaired, mapping, err := network.Repair(net, dead, cfgNet.Range*1.6)
	if err != nil {
		t.Fatal(err)
	}
	projected, err := set.Project(mapping)
	if err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(repaired, energy.DefaultModel())
	cfg := core.Config{Net: repaired, Costs: costs, Samples: projected, K: k}
	lf, err := core.NewLPFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lf.Plan(40)
	if err != nil {
		t.Fatal(err)
	}
	// Execute on projected ground truth.
	env := exec.Env{Net: repaired, Costs: costs}
	truth := src.Next()
	proj := make([]float64, repaired.Size())
	for old, m := range mapping {
		if m >= 0 {
			proj[m] = truth[old]
		}
	}
	res, err := exec.Run(env, p, proj)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(proj, k); acc < 0.3 {
		t.Errorf("post-repair accuracy %.2f", acc)
	}
}
