package sim

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
)

func randTree(rng *rand.Rand, n int) *network.Network {
	parent := make([]network.NodeID, n)
	for i := 1; i < n; i++ {
		parent[i] = network.NodeID(rng.Intn(i))
	}
	net, err := network.New(parent, nil)
	if err != nil {
		panic(err)
	}
	return net
}

func randValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func randBandwidth(rng *rand.Rand, net *network.Network, lo int) []int {
	bw := make([]int, net.Size())
	for v := 1; v < net.Size(); v++ {
		bw[v] = lo + rng.Intn(4)
		if s := net.SubtreeSize(network.NodeID(v)); bw[v] > s {
			bw[v] = s
		}
	}
	return bw
}

// TestLosslessMatchesExec is the simulator's keystone: with a perfect
// medium it must return exactly the values, proven counts, and energy
// totals of the analytic executor.
func TestLosslessMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(50)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		var p *plan.Plan
		var err error
		if trial%2 == 0 {
			p, err = plan.NewProof(net, randBandwidth(rng, net, 1))
		} else {
			bw := randBandwidth(rng, net, 0)
			for _, v := range net.Preorder() {
				if v != network.Root {
					if par := net.Parent(v); par != network.Root && bw[par] == 0 {
						bw[v] = 0
					}
				}
			}
			p, err = plan.NewFiltering(net, bw)
		}
		if err != nil {
			t.Fatal(err)
		}
		execReg := obs.NewRegistry()
		env := exec.Env{Net: net, Costs: plan.NewCosts(net, energy.DefaultModel()), Obs: execReg}
		want, err := exec.Run(env, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		simReg := obs.NewRegistry()
		cfg := DefaultConfig(net)
		cfg.Obs = simReg
		got, err := Run(cfg, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Returned) != len(want.Returned) {
			t.Fatalf("trial %d: %d values vs %d", trial, len(got.Returned), len(want.Returned))
		}
		for i := range want.Returned {
			if got.Returned[i] != want.Returned[i] {
				t.Fatalf("trial %d: value %d differs: %v vs %v", trial, i, got.Returned[i], want.Returned[i])
			}
		}
		if got.Proven != want.Proven {
			t.Fatalf("trial %d: proven %d vs %d", trial, got.Proven, want.Proven)
		}
		if math.Abs(got.Ledger.Total()-want.Ledger.Total()) > 1e-9 {
			t.Fatalf("trial %d: energy %.6f vs %.6f", trial, got.Ledger.Total(), want.Ledger.Total())
		}
		if got.Ledger.Messages != want.Ledger.Messages || got.Ledger.Values != want.Ledger.Values {
			t.Fatalf("trial %d: msgs/values %d/%d vs %d/%d", trial,
				got.Ledger.Messages, got.Ledger.Values, want.Ledger.Messages, want.Ledger.Values)
		}
		compareObsSnapshots(t, trial, execReg.Snapshot(), simReg.Snapshot(), got.NodeEnergy)
	}
}

// compareObsSnapshots asserts the exec.* and sim.* metric families of a
// lossless run agree: same message/value/byte totals, same per-level
// traffic, and exec's per-node energy gauges matching the simulator's
// independently metered NodeEnergy.
func compareObsSnapshots(t *testing.T, trial int, es, ss *obs.Snapshot, nodeEnergy []float64) {
	t.Helper()
	for _, name := range []string{"messages", "values", "bytes"} {
		e, s := es.Counters["exec."+name], ss.Counters["sim."+name]
		if e != s {
			t.Fatalf("trial %d: exec.%s = %d but sim.%s = %d", trial, name, e, name, s)
		}
		if e == 0 {
			t.Fatalf("trial %d: exec.%s is zero; instrumentation not firing", trial, name)
		}
	}
	// Per-level counters must agree in both directions: every level one
	// side reports, the other must report identically (missing key = 0).
	for name, v := range es.Counters {
		if suffix, ok := strings.CutPrefix(name, "exec.level."); ok {
			if sv := ss.Counters["sim.level."+suffix]; sv != v {
				t.Fatalf("trial %d: exec.level.%s = %d but sim counterpart = %d", trial, suffix, v, sv)
			}
		}
	}
	for name, v := range ss.Counters {
		if suffix, ok := strings.CutPrefix(name, "sim.level."); ok {
			if ev := es.Counters["exec.level."+suffix]; ev != v {
				t.Fatalf("trial %d: sim.level.%s = %d but exec counterpart = %d", trial, suffix, v, ev)
			}
		}
	}
	if es.Counters["exec.requests"] != 0 {
		t.Fatalf("trial %d: collection phase recorded %d requests", trial, es.Counters["exec.requests"])
	}
	// exec attributes per-node energy analytically; the simulator meters
	// each radio independently. Lossless, they must coincide.
	for i, want := range nodeEnergy {
		got := es.Gauges["exec.node."+strconv.Itoa(i)+".energy_mj"]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: node %d energy gauge %.9f vs simulated %.9f", trial, i, got, want)
		}
	}
}

func TestNodeEnergySumsToLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := randTree(rng, 40)
	vals := randValues(rng, 40)
	p, err := plan.NewProof(net, randBandwidth(rng, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range res.NodeEnergy {
		sum += e
	}
	if math.Abs(sum-res.Ledger.Total()) > 1e-9 {
		t.Errorf("per-node sum %.6f != ledger %.6f", sum, res.Ledger.Total())
	}
	// The root only receives and triggers; it must spend less than a
	// mid-tree node forwarding everything.
	if res.NodeEnergy[network.Root] <= 0 {
		t.Error("root spent nothing; should pay RX shares")
	}
}

func TestLatencyGrowsWithDepth(t *testing.T) {
	shallow := network.Star(20)
	deep := network.Line(20)
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = float64(i)
	}
	mk := func(net *network.Network) float64 {
		bw := make([]int, 20)
		for v := 1; v < 20; v++ {
			bw[v] = 1
		}
		p, err := plan.NewProof(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(DefaultConfig(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency
	}
	if ls, ld := mk(shallow), mk(deep); ld <= ls {
		t.Errorf("chain latency %.4fs not above star latency %.4fs", ld, ls)
	}
}

func TestContentionCausesDeferrals(t *testing.T) {
	// All nodes in one collision domain: positions at the origin.
	n := 15
	parent := make([]network.NodeID, n)
	pos := make([]network.Point, n)
	for i := 1; i < n; i++ {
		parent[i] = network.Root
	}
	net, err := network.New(parent, pos)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, n)
	bw := make([]int, n)
	for i := 1; i < n; i++ {
		bw[i] = 1
	}
	p, err := plan.NewProof(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.InterferenceRange = 10
	cfg.Rng = rand.New(rand.NewSource(3))
	res, err := Run(cfg, p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferrals == 0 {
		t.Error("no carrier-sense deferrals in a single collision domain")
	}
	// Serialized medium: latency at least 14 message durations.
	noContention, err := Run(DefaultConfig(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= noContention.Latency {
		t.Errorf("contention latency %.4f not above contention-free %.4f", res.Latency, noContention.Latency)
	}
	// Results unchanged: carrier sense only delays.
	if len(res.Returned) != len(noContention.Returned) {
		t.Error("contention changed the result")
	}
}

func TestLossForcesRetransmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := randTree(rng, 30)
	vals := randValues(rng, 30)
	p, err := plan.NewProof(net, randBandwidth(rng, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	loss := make([]float64, 30)
	for i := range loss {
		loss[i] = 0.4
	}
	cfg.LossProb = loss
	cfg.Rng = rand.New(rand.NewSource(5))
	res, err := Run(cfg, p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Error("40% loss caused no retransmissions")
	}
	clean, err := Run(DefaultConfig(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Total() <= clean.Ledger.Total() {
		t.Errorf("lossy run cost %.2f not above clean %.2f", res.Ledger.Total(), clean.Ledger.Total())
	}
}

func TestTotalLossDropsSubtrees(t *testing.T) {
	net := network.Line(5)
	vals := []float64{0, 1, 2, 3, 4}
	bw := []int{0, 4, 3, 2, 1}
	p, err := plan.NewProof(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	loss := []float64{0, 0, 0, 1, 0} // edge above node 3 always fails
	cfg.LossProb = loss
	cfg.MaxRetries = 2
	cfg.Rng = rand.New(rand.NewSource(6))
	res, err := Run(cfg, p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("permanently failing edge never dropped a message")
	}
	// Values 3 and 4 cannot reach the root.
	for _, v := range res.Returned {
		if v.Node == 3 || v.Node == 4 {
			t.Errorf("node %d's value crossed a dead edge", v.Node)
		}
	}
	// The root's proven count must be 0: child 1's subtree is not
	// fully visible and no smaller witness arrived from below node 3.
	if res.Proven != 0 {
		t.Errorf("proven = %d despite a silenced subtree", res.Proven)
	}
	if len(res.Returned) == 0 {
		t.Error("deadline logic failed: nothing returned at all")
	}
}

func TestRunValidation(t *testing.T) {
	net := network.Line(3)
	p, err := plan.NewFiltering(net, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(DefaultConfig(net), p, []float64{1}); err == nil {
		t.Error("accepted short values")
	}
	cfg := DefaultConfig(net)
	cfg.LossProb = []float64{0, 0.5, 0}
	if _, err := Run(cfg, p, []float64{1, 2, 3}); err == nil {
		t.Error("accepted loss without an Rng")
	}
	cfg = DefaultConfig(net)
	cfg.ByteRate = 0
	if _, err := Run(cfg, p, []float64{1, 2, 3}); err == nil {
		t.Error("accepted zero byte rate")
	}
	chosen := []bool{false, true, false}
	sp, err := plan.NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(DefaultConfig(net), sp, []float64{1, 2, 3}); err == nil {
		t.Error("accepted a selection plan")
	}
}

// TestConfigValidate feeds Run and RunInstall one malformed field per
// row. Each must fail before simulating: NaN compares false both ways,
// so a check written as "x < 0" alone would let it through.
func TestConfigValidate(t *testing.T) {
	net := network.Line(3)
	p, err := plan.NewFiltering(net, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"nil network", func(c *Config) { c.Net = nil }},
		{"zero ByteRate", func(c *Config) { c.ByteRate = 0 }},
		{"negative ByteRate", func(c *Config) { c.ByteRate = -2400 }},
		{"NaN ByteRate", func(c *Config) { c.ByteRate = nan }},
		{"infinite ByteRate", func(c *Config) { c.ByteRate = inf }},
		{"negative HeaderBytes", func(c *Config) { c.HeaderBytes = -1 }},
		{"negative InterferenceRange", func(c *Config) { c.InterferenceRange = -1 }},
		{"NaN InterferenceRange", func(c *Config) { c.InterferenceRange = nan }},
		{"negative SlotSeconds", func(c *Config) { c.SlotSeconds = -0.5 }},
		{"NaN SlotSeconds", func(c *Config) { c.SlotSeconds = nan }},
		{"negative MaxRetries", func(c *Config) { c.MaxRetries = -3 }},
		{"NaN LossProb", func(c *Config) { c.LossProb = []float64{0, nan, 0} }},
		{"negative LossProb", func(c *Config) { c.LossProb = []float64{0, -0.1, 0} }},
		{"LossProb above 1", func(c *Config) { c.LossProb = []float64{0, 2, 0} }},
		{"short LossProb", func(c *Config) { c.LossProb = []float64{0, 0.5} }},
		{"loss without an Rng", func(c *Config) { c.LossProb = []float64{0, 0.5, 0}; c.Rng = nil }},
		{"contention without an Rng", func(c *Config) { c.InterferenceRange = 10; c.Rng = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(net)
			cfg.Rng = rand.New(rand.NewSource(1))
			tc.edit(&cfg)
			if res, err := Run(cfg, p, []float64{1, 2, 3}); err == nil {
				t.Errorf("Run accepted it: latency %v, %d values", res.Latency, len(res.Returned))
			}
			if _, err := RunInstall(cfg, p); err == nil {
				t.Error("RunInstall accepted it")
			}
		})
	}
	// The boundaries stay legal: certain loss, no retries, an explicit
	// slot and contention on.
	cfg := DefaultConfig(net)
	cfg.Rng = rand.New(rand.NewSource(1))
	cfg.LossProb = []float64{0, 1, 0}
	cfg.MaxRetries = 0
	cfg.SlotSeconds = 0.5
	cfg.InterferenceRange = 10
	cfg.HeaderBytes = 0
	if _, err := Run(cfg, p, []float64{1, 2, 3}); err != nil {
		t.Errorf("Run rejected a legal config: %v", err)
	}
	if _, err := RunInstall(cfg, p); err != nil {
		t.Errorf("RunInstall rejected a legal config: %v", err)
	}
}

func TestEstimateLossProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := randTree(rng, 25)
	vals := randValues(rng, 25)
	p, err := plan.NewProof(net, randBandwidth(rng, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 25)
	for i := 1; i < 25; i++ {
		truth[i] = 0.1 + 0.3*rng.Float64()
	}
	cfg := DefaultConfig(net)
	cfg.LossProb = truth
	cfg.MaxRetries = 50
	cfg.Rng = rand.New(rand.NewSource(8))
	var results []*Result
	for run := 0; run < 300; run++ {
		res, err := Run(cfg, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	probs, err := EstimateLossProbs(results, 25)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 25; v++ {
		if diff := probs[v] - truth[v]; diff < -0.08 || diff > 0.08 {
			t.Errorf("edge %d: estimated %.3f, truth %.3f", v, probs[v], truth[v])
		}
	}
	// Mismatched widths are rejected.
	if _, err := EstimateLossProbs(results, 10); err == nil {
		t.Error("accepted wrong edge count")
	}
}

func TestFailureFeedbackLoop(t *testing.T) {
	// The full Section 4.4 loop: simulate with losses, estimate the
	// per-edge probabilities, inflate planning costs with them, and
	// verify the inflated table is dearer exactly on the lossy edges.
	rng := rand.New(rand.NewSource(9))
	net := randTree(rng, 20)
	vals := randValues(rng, 20)
	p, err := plan.NewProof(net, randBandwidth(rng, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	loss := make([]float64, 20)
	loss[5], loss[9] = 0.5, 0.3 // only two flaky links
	cfg := DefaultConfig(net)
	cfg.LossProb = loss
	cfg.Rng = rand.New(rand.NewSource(10))
	var results []*Result
	for run := 0; run < 200; run++ {
		res, err := Run(cfg, p, vals)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	probs, err := EstimateLossProbs(results, 20)
	if err != nil {
		t.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	base := plan.NewCosts(net, energy.DefaultModel())
	if err := costs.InflateForFailures(probs, 0.6); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 20; v++ {
		inflated := costs.Msg[v] > base.Msg[v]*1.02
		flaky := loss[v] > 0
		if flaky && !inflated {
			t.Errorf("flaky edge %d not inflated (est %.3f)", v, probs[v])
		}
		if !flaky && inflated {
			t.Errorf("clean edge %d inflated (est %.3f)", v, probs[v])
		}
	}
}

func TestRunInstallMatchesStaticCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		net := randTree(rng, n)
		p, err := plan.NewProof(net, randBandwidth(rng, net, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunInstall(DefaultConfig(net), p)
		if err != nil {
			t.Fatal(err)
		}
		costs := plan.NewCosts(net, energy.DefaultModel())
		want := p.InstallCost(net, costs)
		if math.Abs(res.Ledger.Install-want) > 1e-9 {
			t.Fatalf("trial %d: simulated install %.6f, static %.6f", trial, res.Ledger.Install, want)
		}
		if res.Ledger.Messages != p.Participants()-1 {
			t.Fatalf("trial %d: %d messages for %d participants", trial, res.Ledger.Messages, p.Participants())
		}
		if res.Latency <= 0 {
			t.Fatalf("trial %d: no latency recorded", trial)
		}
		// Per-node energies sum to the ledger.
		sum := 0.0
		for _, e := range res.NodeEnergy {
			sum += e
		}
		if math.Abs(sum-res.Ledger.Total()) > 1e-9 {
			t.Fatalf("trial %d: node sum %.6f != total %.6f", trial, sum, res.Ledger.Total())
		}
	}
}

func TestRunInstallLossSilencesSubtree(t *testing.T) {
	net := network.Line(5)
	bw := []int{0, 4, 3, 2, 1}
	p, err := plan.NewProof(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.LossProb = []float64{0, 0, 1, 0, 0} // bundle to node 2 always lost
	cfg.MaxRetries = 2
	cfg.Rng = rand.New(rand.NewSource(12))
	res, err := RunInstall(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d", res.Dropped)
	}
	// Node 1 installed; nodes 2..4 never received anything: exactly one
	// successful message.
	if res.Ledger.Messages != 1 {
		t.Errorf("messages = %d, want 1", res.Ledger.Messages)
	}
	if len(res.Abandoned) != 1 || res.Abandoned[0] != 2 {
		t.Errorf("abandoned = %v", res.Abandoned)
	}
}

// TestTriggerStreamOrder checks the trigger stream newSim builds
// against the order one queue holding every trigger handles them in:
// each participant queued in preorder, then popped by (at, seq). A zero
// header makes every depth hear the trigger at once, so there the order
// is preorder alone.
func TestTriggerStreamOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(120)
		net := randTree(rng, n)
		p, err := plan.NewFiltering(net, filteringBandwidth(rng, net))
		if err != nil {
			t.Fatal(err)
		}
		for _, header := range []int{26, 0} {
			cfg := DefaultConfig(net)
			cfg.HeaderBytes = header
			s := newSim(cfg, p, make([]float64, n))
			trigDur := s.msgDuration(0, 0) / 2
			var q eventQueue
			seq := uint64(0)
			for _, v := range net.Preorder() {
				if v == network.Root || p.UsesEdge(v) {
					seq++
					q.push(event{at: float64(net.Depth(v)) * trigDur, seq: seq, node: int32(v), kind: evTrigger})
				}
			}
			var want []event
			for !q.empty() {
				e := q.pop()
				e.seq = uint64(len(want) + 1)
				want = append(want, e)
			}
			if !slices.Equal(s.trig, want) {
				t.Fatalf("trial %d, header %d: trigger stream %v, want %v", trial, header, s.trig, want)
			}
		}
	}
}
