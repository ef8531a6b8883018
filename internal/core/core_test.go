package core

import (
	"math"
	"math/rand"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// testScenario builds a random network, samples, and ground truth.
type testScenario struct {
	cfg   Config
	env   exec.Env
	truth [][]float64 // held-out epochs for evaluation
}

func makeScenario(t testing.TB, seed int64, nodes, k, nSamples int) *testScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := network.Build(network.DefaultBuildConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(nodes), rng)
	if err != nil {
		t.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, nSamples)); err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	cfg := Config{Net: net, Costs: costs, Samples: set, K: k}
	return &testScenario{
		cfg:   cfg,
		env:   exec.Env{Net: net, Costs: costs},
		truth: workload.Draw(src, 10),
	}
}

// meanAccuracy executes a plan over the held-out epochs.
func (s *testScenario) meanAccuracy(t testing.TB, p *plan.Plan) float64 {
	t.Helper()
	total := 0.0
	for _, vals := range s.truth {
		res, err := exec.Run(s.env, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Accuracy(vals, s.cfg.K)
	}
	return total / float64(len(s.truth))
}

func TestConfigValidation(t *testing.T) {
	s := makeScenario(t, 1, 20, 4, 5)
	bad := s.cfg
	bad.K = 0
	if _, err := NewGreedy(bad); err == nil {
		t.Error("accepted k = 0")
	}
	bad = s.cfg
	bad.Samples = sample.MustNewSet(20, 3, 0) // wrong k, empty
	if _, err := NewLPNoFilter(bad); err == nil {
		t.Error("accepted empty sample set with mismatched k")
	}
	bad = s.cfg
	bad.Net = nil
	if _, err := NewLPFilter(bad); err == nil {
		t.Error("accepted nil network")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	s := makeScenario(t, 2, 40, 8, 12)
	g, err := NewGreedy(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{10, 40, 100, 400} {
		p, err := g.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if cost := p.CollectionCost(s.cfg.Net, s.cfg.Costs); cost > budget+1e-9 {
			t.Errorf("budget %g: plan costs %g", budget, cost)
		}
	}
}

func TestGreedyMoreBudgetMoreAccuracy(t *testing.T) {
	s := makeScenario(t, 3, 40, 8, 12)
	g, err := NewGreedy(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := g.Plan(30)
	if err != nil {
		t.Fatal(err)
	}
	high, err := g.Plan(500)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := s.meanAccuracy(t, low), s.meanAccuracy(t, high); b < a {
		t.Errorf("accuracy fell from %g to %g with 16x budget", a, b)
	}
}

func TestLPNoFilterRespectsBudgetAndBeatsGreedy(t *testing.T) {
	s := makeScenario(t, 4, 50, 10, 15)
	g, err := NewGreedy(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLPNoFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedyWins := 0
	for _, budget := range []float64{40, 80, 160} {
		gp, err := g.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		lpp, err := l.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if cost := lpp.CollectionCost(s.cfg.Net, s.cfg.Costs); cost > budget+1e-9 {
			t.Errorf("budget %g: LP-LF plan costs %g", budget, cost)
		}
		// Compare on the planning objective (expected hits over
		// samples), where LP-LF should never lose to Greedy by much.
		gh := selectionObjective(s.cfg, gp.Chosen)
		lh := selectionObjective(s.cfg, lpp.Chosen)
		if lh < gh {
			greedyWins++
		}
	}
	if greedyWins > 1 {
		t.Errorf("greedy beat LP-LF on its own objective %d/3 times", greedyWins)
	}
}

func TestLPFilterRespectsBudget(t *testing.T) {
	s := makeScenario(t, 5, 40, 8, 10)
	f, err := NewLPFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{30, 90, 250} {
		p, err := f.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != plan.Filtering {
			t.Fatalf("kind = %v", p.Kind)
		}
		if cost := p.CollectionCost(s.cfg.Net, s.cfg.Costs); cost > budget+1e-9 {
			t.Errorf("budget %g: plan costs %g", budget, cost)
		}
		if err := p.Validate(s.cfg.Net); err != nil {
			t.Errorf("budget %g: %v", budget, err)
		}
	}
}

func TestLPFilterHighBudgetHighAccuracy(t *testing.T) {
	s := makeScenario(t, 6, 40, 8, 15)
	f, err := NewLPFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Plan(2000) // plenty for everything
	if err != nil {
		t.Fatal(err)
	}
	if acc := s.meanAccuracy(t, p); acc < 0.85 {
		t.Errorf("near-unconstrained LP+LF accuracy %g", acc)
	}
}

func TestBandwidthCoverageMatchesExecution(t *testing.T) {
	// The planning-time coverage estimator must agree with actually
	// executing the plan on each sample.
	s := makeScenario(t, 7, 30, 6, 8)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		bw := make([]int, s.cfg.Net.Size())
		for v := 1; v < s.cfg.Net.Size(); v++ {
			bw[v] = rng.Intn(4)
			if sz := s.cfg.Net.SubtreeSize(network.NodeID(v)); bw[v] > sz {
				bw[v] = sz
			}
		}
		enforceMonotone(s.cfg.Net, bw)
		p, err := plan.NewFiltering(s.cfg.Net, bw)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for j := 0; j < s.cfg.Samples.Len(); j++ {
			vals := s.cfg.Samples.Values(j)
			res, err := exec.Run(s.env, p, vals)
			if err != nil {
				t.Fatal(err)
			}
			top := exec.TrueTopK(vals, s.cfg.K)
			have := map[network.NodeID]bool{}
			for _, r := range res.Returned {
				have[r.Node] = true
			}
			for _, v := range top {
				if have[v.Node] {
					want++
				}
			}
		}
		if got := bandwidthCoverage(s.cfg, bw); got != want {
			t.Fatalf("trial %d: coverage estimate %d, execution %d", trial, got, want)
		}
	}
}

func TestProofPlannerBudgets(t *testing.T) {
	s := makeScenario(t, 8, 25, 5, 6)
	pp, err := NewProofPlanner(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	min := pp.MinBudget()
	if _, err := pp.Plan(min * 0.5); err == nil {
		t.Error("accepted budget below the all-edges minimum")
	}
	p, err := pp.Plan(min * 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.Proof {
		t.Fatalf("kind = %v", p.Kind)
	}
	for v := 1; v < s.cfg.Net.Size(); v++ {
		if p.Bandwidth[v] < 1 {
			t.Fatalf("proof plan leaves edge %d unused", v)
		}
	}
	if cost := proofCost(s.cfg, p.Bandwidth); cost > min*1.6+1e-9 {
		t.Errorf("plan cost %g exceeds budget %g", cost, min*1.6)
	}
}

func TestProofPlannerMoreBudgetMoreProven(t *testing.T) {
	s := makeScenario(t, 9, 25, 5, 6)
	pp, err := NewProofPlanner(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	min := pp.MinBudget()
	prev := -1.0
	for _, mult := range []float64{1.05, 1.5, 2.5} {
		p, err := pp.Plan(min * mult)
		if err != nil {
			t.Fatal(err)
		}
		got := pp.ExpectedProven(p.Bandwidth)
		if got < prev-0.75 { // tolerate small repair noise
			t.Errorf("budget x%g: expected proven %g fell from %g", mult, got, prev)
		}
		if got > prev {
			prev = got
		}
	}
	if prev <= 0 {
		t.Error("proof planner never proves anything")
	}
}

func TestExactAlwaysExact(t *testing.T) {
	s := makeScenario(t, 10, 25, 5, 6)
	ex, err := NewExact(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	min := ex.MinPhase1Budget()
	for _, mult := range []float64{1.05, 1.8} {
		p, err := ex.planner.Plan(min * mult)
		if err != nil {
			t.Fatal(err)
		}
		for _, vals := range s.truth {
			res, err := ex.RunWithPlan(s.env, p, vals)
			if err != nil {
				t.Fatal(err)
			}
			truth := exec.TrueTopK(vals, s.cfg.K)
			if len(res.Answer) != len(truth) {
				t.Fatalf("answer has %d values", len(res.Answer))
			}
			for i := range truth {
				if res.Answer[i].Node != truth[i].Node {
					t.Fatalf("mult %g: rank %d node %d, want %d", mult, i, res.Answer[i].Node, truth[i].Node)
				}
			}
		}
	}
}

func TestNaiveKPlanExact(t *testing.T) {
	s := makeScenario(t, 11, 30, 6, 5)
	p, err := NaiveKPlan(s.cfg.Net, s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if acc := s.meanAccuracy(t, p); acc != 1 {
		t.Errorf("NAIVE-k accuracy %g", acc)
	}
}

func TestOraclePlanExactAndCheap(t *testing.T) {
	s := makeScenario(t, 12, 30, 6, 5)
	vals := s.truth[0]
	p, err := OraclePlan(s.cfg.Net, vals, s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(s.env, p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy(vals, s.cfg.K); acc != 1 {
		t.Errorf("oracle accuracy %g", acc)
	}
	nk, err := NaiveKPlan(s.cfg.Net, s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	nkRes, err := exec.Run(s.env, nk, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Total() >= nkRes.Ledger.Total() {
		t.Errorf("oracle (%g) not cheaper than NAIVE-k (%g)",
			res.Ledger.Total(), nkRes.Ledger.Total())
	}
}

func TestOracleProofProvesAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(50)
		parent := make([]network.NodeID, n)
		for i := 1; i < n; i++ {
			parent[i] = network.NodeID(rng.Intn(i))
		}
		net, err := network.New(parent, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(minInt(n, 10))
		p, err := OracleProofPlan(net, vals, k)
		if err != nil {
			t.Fatal(err)
		}
		env := exec.Env{Net: net, Costs: plan.NewCosts(net, energy.DefaultModel())}
		res, err := exec.Run(env, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		if res.Proven < k {
			t.Errorf("trial %d (n=%d k=%d): OracleProof proved only %d", trial, n, k, res.Proven)
		}
	}
}

func TestLocalFilteringWinsInContentionZones(t *testing.T) {
	// The paper's central qualitative claim (Figure 5): under strong
	// negative correlation, LP+LF beats LP-LF at equal budget.
	rng := rand.New(rand.NewSource(14))
	const (
		nodes = 60
		zones = 4
		k     = 8
	)
	bcfg := network.DefaultBuildConfig(nodes)
	pos, zoneOf := network.ZonePlacement(bcfg, zones, k, rng)
	net, err := network.FromPositions(pos, bcfg.Range*1.4)
	if err != nil {
		t.Fatal(err)
	}
	zcfg := workload.DefaultZoneConfig(nodes, zones, k, zoneOf)
	zcfg.Territorial = true
	src, err := workload.NewZoneField(zcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	set := sample.MustNewSet(nodes, k, 0)
	if err := set.AddAll(workload.Draw(src, 15)); err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	cfg := Config{Net: net, Costs: costs, Samples: set, K: k}
	env := exec.Env{Net: net, Costs: costs}

	lf, err := NewLPFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nolf, err := NewLPNoFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := 60.0
	pf, err := lf.Plan(budget)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := nolf.Plan(budget)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Draw(src, 12)
	accF, accN := 0.0, 0.0
	for _, vals := range truth {
		rf, err := exec.Run(env, pf, vals)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := exec.Run(env, pn, vals)
		if err != nil {
			t.Fatal(err)
		}
		accF += rf.Accuracy(vals, k)
		accN += rn.Accuracy(vals, k)
	}
	accF /= float64(len(truth))
	accN /= float64(len(truth))
	if accF < accN {
		t.Errorf("LP+LF %.3f did not beat LP-LF %.3f under contention", accF, accN)
	}
}

func TestRoundingRepairKeepsBudget(t *testing.T) {
	s := makeScenario(t, 15, 40, 8, 10)
	withRepair := s.cfg
	noRepair := s.cfg
	noRepair.DisableRepair = true
	for _, budget := range []float64{50, 120} {
		fr, err := NewLPFilter(withRepair)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := fr.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if cost := bandwidthCost(withRepair, pr.Bandwidth); cost > budget+1e-9 {
			t.Errorf("repaired plan cost %g > budget %g", cost, budget)
		}
		fn, err := NewLPFilter(noRepair)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := fn.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's bound: plain rounding costs at most 2x budget.
		if cost := bandwidthCost(noRepair, pn.Bandwidth); cost > 2*budget+1e-9 {
			t.Errorf("unrepaired plan cost %g > 2x budget %g", cost, budget)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = math.Abs // keep math import for future tolerance checks

// TestPoolTableMovedMatchesWalks is the path-delta property the
// rounding relies on: for random networks, samples and bandwidths, the
// table's count for a ±1 step at any node equals the difference of two
// full bandwidthCoverage walks, in both directions.
func TestPoolTableMovedMatchesWalks(t *testing.T) {
	nonzero := 0
	for trial := 0; trial < 30; trial++ {
		s := makeScenario(t, int64(40+trial), 15+3*trial, 2+trial%9, 3+trial%6)
		net := s.cfg.Net
		r := rand.New(rand.NewSource(int64(trial)))
		bw := make([]int, net.Size())
		for v := 1; v < net.Size(); v++ {
			bw[v] = r.Intn(3)
		}
		if trial%2 == 0 {
			enforceMonotone(net, bw)
		}
		var tab poolTable
		tab.fill(s.cfg, bw)
		base := bandwidthCoverage(s.cfg, bw)
		for v := 1; v < net.Size(); v++ {
			bw[v]++
			gain := bandwidthCoverage(s.cfg, bw) - base
			bw[v]--
			if got := tab.moved(net, bw, network.NodeID(v), true); got != gain {
				t.Fatalf("trial %d node %d: raise moves %d samples, walks say %d", trial, v, got, gain)
			}
			if gain != 0 {
				nonzero++
			}
			if bw[v] == 0 {
				continue
			}
			bw[v]--
			loss := base - bandwidthCoverage(s.cfg, bw)
			bw[v]++
			if got := tab.moved(net, bw, network.NodeID(v), false); got != loss {
				t.Fatalf("trial %d node %d: lower moves %d samples, walks say %d", trial, v, got, loss)
			}
			if loss != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no step moved any sample: the property was never exercised")
	}
	t.Logf("%d steps moved coverage", nonzero)
}

func TestBandwidthCoverageMonotone(t *testing.T) {
	// Property: adding bandwidth anywhere never reduces top-k coverage.
	s := makeScenario(t, 25, 30, 6, 8)
	rng := rand.New(rand.NewSource(26))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bw := make([]int, s.cfg.Net.Size())
		for v := 1; v < s.cfg.Net.Size(); v++ {
			bw[v] = r.Intn(3)
			if sz := s.cfg.Net.SubtreeSize(network.NodeID(v)); bw[v] > sz {
				bw[v] = sz
			}
		}
		enforceMonotone(s.cfg.Net, bw)
		base := bandwidthCoverage(s.cfg, bw)
		// Raise one random usable edge.
		v := 1 + r.Intn(s.cfg.Net.Size()-1)
		if parent := s.cfg.Net.Parent(network.NodeID(v)); parent != network.Root && bw[parent] == 0 {
			return true // increment would be unreachable; skip
		}
		if bw[v] >= s.cfg.Net.SubtreeSize(network.NodeID(v)) {
			return true
		}
		bw[v]++
		return bandwidthCoverage(s.cfg, bw) >= base
	}
	for trial := 0; trial < 150; trial++ {
		if !f(rng.Int63()) {
			t.Fatalf("coverage decreased after a bandwidth increment (trial %d)", trial)
		}
	}
}

func TestSelectionObjectiveAdditive(t *testing.T) {
	// Property: the selection objective is exactly the sum of the
	// chosen nodes' column sums plus the root's.
	s := makeScenario(t, 27, 25, 5, 10)
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		chosen := make([]bool, s.cfg.Net.Size())
		want := s.cfg.Samples.ColumnSum(0)
		for i := 1; i < len(chosen); i++ {
			if rng.Float64() < 0.4 {
				chosen[i] = true
				want += s.cfg.Samples.ColumnSum(i)
			}
		}
		if got := selectionObjective(s.cfg, chosen); got != want {
			t.Fatalf("objective %d, want %d", got, want)
		}
	}
}

func TestPlannerNames(t *testing.T) {
	s := makeScenario(t, 32, 20, 4, 5)
	mk := []struct {
		name string
		p    func() (Planner, error)
	}{
		{"Greedy", func() (Planner, error) { return NewGreedy(s.cfg) }},
		{"LP-LF", func() (Planner, error) { return NewLPNoFilter(s.cfg) }},
		{"LP+LF", func() (Planner, error) { return NewLPFilter(s.cfg) }},
	}
	for _, m := range mk {
		p, err := m.p()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != m.name {
			t.Errorf("Name = %q, want %q", p.Name(), m.name)
		}
	}
	pp, err := NewProofPlanner(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Name() != "Proof" {
		t.Errorf("proof Name = %q", pp.Name())
	}
	ex, err := NewExact(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name() != "Exact" {
		t.Errorf("exact Name = %q", ex.Name())
	}
}

func TestExactRunConvenience(t *testing.T) {
	// Exact.Run (plan-and-run in one call) must agree with the
	// two-step path and report a sane per-phase breakdown.
	s := makeScenario(t, 33, 20, 4, 5)
	ex, err := NewExact(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.truth[0]
	res, err := ex.Run(s.env, truth, ex.MinPhase1Budget()*1.2)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.TrueTopK(truth, s.cfg.K)
	for i := range want {
		if res.Answer[i].Node != want[i].Node {
			t.Fatalf("rank %d wrong", i)
		}
	}
	if res.Total() <= 0 {
		t.Error("no energy accounted")
	}
	if res.Total() != res.Phase1.Total()+res.Phase2.Total() {
		t.Error("Total != phase sum")
	}
}

func TestProofPlannerPaperC3Variant(t *testing.T) {
	// The paper-faithful variant (c.3 rows omitted) must still produce
	// valid proof plans; its LP may over-promise, but execution stays
	// sound (Lemma 1 holds regardless of planning).
	s := makeScenario(t, 34, 20, 4, 5)
	pp, err := NewProofPlannerPaperC3(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pp.Plan(pp.MinBudget() * 1.3)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.truth[0]
	res, err := exec.Run(s.env, p, truth)
	if err != nil {
		t.Fatal(err)
	}
	top := exec.TrueTopK(truth, res.Proven)
	for i := 0; i < res.Proven; i++ {
		if res.Returned[i].Node != top[i].Node {
			t.Fatalf("proven rank %d wrong under paper-c3 plan", i)
		}
	}
}

func TestRunnerPlanAccessor(t *testing.T) {
	s := makeScenario(t, 35, 20, 4, 6)
	rng := rand.New(rand.NewSource(36))
	g, err := NewGreedy(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(s.cfg, g, 40, DefaultAdaptivePolicy(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan() == nil {
		t.Fatal("no initial plan")
	}
	if r.SamplingRate() <= 0 {
		t.Error("bad initial sampling rate")
	}
}
