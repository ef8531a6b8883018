package exec

import (
	"math"
	"math/rand"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/plan"
)

func testEnv(net *network.Network) Env {
	return Env{Net: net, Costs: plan.NewCosts(net, energy.DefaultModel())}
}

func randValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func randTree(rng *rand.Rand, n int) *network.Network {
	parent := make([]network.NodeID, n)
	for i := 1; i < n; i++ {
		parent[i] = network.NodeID(rng.Intn(i)) // random recursive tree
	}
	net, err := network.New(parent, nil)
	if err != nil {
		panic(err)
	}
	return net
}

func TestTrueTopKAndAccuracy(t *testing.T) {
	vals := []float64{1, 9, 5, 7, 3}
	top := TrueTopK(vals, 3)
	if top[0].Node != 1 || top[1].Node != 3 || top[2].Node != 2 {
		t.Fatalf("TrueTopK = %v", top)
	}
	ret := []ValueAt{{Node: 1, Val: 9}, {Node: 2, Val: 5}}
	if acc := Accuracy(ret, vals, 3); math.Abs(acc-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %g, want 2/3", acc)
	}
	if acc := Accuracy(nil, vals, 3); acc != 0 {
		t.Errorf("empty accuracy = %g", acc)
	}
}

func TestSelectionRunDeliversChosen(t *testing.T) {
	net := network.BalancedTree(2, 3) // 15 nodes
	vals := randValues(rand.New(rand.NewSource(2)), net.Size())
	chosen := make([]bool, net.Size())
	chosen[7], chosen[12], chosen[3] = true, true, true
	p, err := plan.NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(testEnv(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[network.NodeID]bool)
	for _, v := range res.Returned {
		got[v.Node] = true
	}
	for _, want := range []network.NodeID{7, 12, 3, network.Root} {
		if !got[want] {
			t.Errorf("node %d missing from result", want)
		}
	}
	if len(res.Returned) != 4 {
		t.Errorf("returned %d values, want 4", len(res.Returned))
	}
	// Values carry correct readings.
	for _, v := range res.Returned {
		if v.Val != vals[v.Node] {
			t.Errorf("node %d returned %g, truth %g", v.Node, v.Val, vals[v.Node])
		}
	}
}

func TestSelectionCostMatchesStatic(t *testing.T) {
	net := network.BalancedTree(3, 2)
	vals := randValues(rand.New(rand.NewSource(3)), net.Size())
	chosen := make([]bool, net.Size())
	chosen[5], chosen[9] = true, true
	p, err := plan.NewSelection(net, chosen)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(net)
	res, err := Run(env, p, vals)
	if err != nil {
		t.Fatal(err)
	}
	want := p.CollectionCost(net, env.Costs)
	if math.Abs(res.Ledger.Collection-want) > 1e-9 {
		t.Errorf("executed collection cost %g, static %g", res.Ledger.Collection, want)
	}
	if res.Ledger.Trigger <= 0 {
		t.Error("no trigger cost charged")
	}
}

func TestFilteringKeepsTopValues(t *testing.T) {
	// Chain 0-1-2-3-4 with bandwidth 2 everywhere: the two largest
	// readings below each cut must arrive.
	net := network.Line(5)
	vals := []float64{0, 5, 9, 7, 8}
	bw := []int{0, 2, 2, 2, 1}
	p, err := plan.NewFiltering(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(testEnv(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Node 4 sends {8}; node 3 pools {7,8} sends both; node 2 pools
	// {9,8,7} sends {9,8}; node 1 pools {5,9,8} sends {9,8}.
	if len(res.Returned) != 3 { // 9, 8, plus root's own 0
		t.Fatalf("returned %v", res.Returned)
	}
	if res.Returned[0].Node != 2 || res.Returned[1].Node != 4 {
		t.Errorf("top returned = %v", res.Returned[:2])
	}
}

func TestFilteringAccuracyImprovesWithBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := randTree(rng, 40)
	vals := randValues(rng, 40)
	const k = 8
	prev := -1.0
	for _, b := range []int{1, 2, 4, 8} {
		bw := make([]int, net.Size())
		for v := 1; v < net.Size(); v++ {
			bw[v] = b
			if s := net.SubtreeSize(network.NodeID(v)); s < b {
				bw[v] = s
			}
		}
		p, err := plan.NewFiltering(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testEnv(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		acc := res.Accuracy(vals, k)
		if acc < prev {
			t.Errorf("bandwidth %d: accuracy %g dropped below %g", b, acc, prev)
		}
		prev = acc
	}
	if prev != 1 {
		t.Errorf("bandwidth k must be exact, accuracy %g", prev)
	}
}

func TestNaiveKIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		k := 1 + rng.Intn(10)
		bw := make([]int, n)
		for v := 1; v < n; v++ {
			bw[v] = k
			if s := net.SubtreeSize(network.NodeID(v)); s < k {
				bw[v] = s
			}
		}
		p, err := plan.NewFiltering(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testEnv(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		if acc := res.Accuracy(vals, k); acc != 1 {
			t.Errorf("trial %d: NAIVE-%d accuracy %g", trial, k, acc)
		}
	}
}

func TestProofLemma1(t *testing.T) {
	// Lemma 1: values proven by any node are exactly the top values of
	// its subtree — checked at the root across random trees, values,
	// and bandwidth plans.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(50)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		bw := make([]int, n)
		for v := 1; v < n; v++ {
			bw[v] = 1 + rng.Intn(4)
			if s := net.SubtreeSize(network.NodeID(v)); bw[v] > s {
				bw[v] = s
			}
		}
		p, err := plan.NewProof(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testEnv(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		truth := TrueTopK(vals, res.Proven)
		for i := 0; i < res.Proven; i++ {
			if res.Returned[i].Node != truth[i].Node {
				t.Fatalf("trial %d: proven[%d] = node %d, truth %d (proven=%d)",
					trial, i, res.Returned[i].Node, truth[i].Node, res.Proven)
			}
		}
	}
}

func TestProofFullBandwidthProvesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := randTree(rng, 30)
	vals := randValues(rng, 30)
	bw := make([]int, 30)
	for v := 1; v < 30; v++ {
		bw[v] = net.SubtreeSize(network.NodeID(v))
	}
	p, err := plan.NewProof(net, bw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(testEnv(net), p, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven != 30 {
		t.Errorf("full-bandwidth plan proved %d of 30", res.Proven)
	}
}

func TestMopUpExactness(t *testing.T) {
	// PROSPECTOR EXACT's invariant: whatever the phase-1 plan, phase 2
	// returns the exact top k.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(60)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		k := 1 + rng.Intn(minInt(n, 12))
		bw := make([]int, n)
		for v := 1; v < n; v++ {
			bw[v] = 1 + rng.Intn(3)
			if s := net.SubtreeSize(network.NodeID(v)); bw[v] > s {
				bw[v] = s
			}
		}
		p, err := plan.NewProof(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testEnv(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		mop, err := res.State.MopUp(k)
		if err != nil {
			t.Fatal(err)
		}
		truth := TrueTopK(vals, k)
		if len(mop.Answer) != len(truth) {
			t.Fatalf("trial %d: answer has %d values, want %d", trial, len(mop.Answer), len(truth))
		}
		for i := range truth {
			if mop.Answer[i].Node != truth[i].Node {
				t.Fatalf("trial %d (n=%d k=%d): answer[%d] = node %d, truth %d",
					trial, n, k, i, mop.Answer[i].Node, truth[i].Node)
			}
		}
		// When phase 1 already proved everything, phase 2 is free.
		if res.Proven >= k && mop.Queried {
			t.Errorf("trial %d: mop-up queried despite %d proven", trial, res.Proven)
		}
	}
}

func TestMopUpCostDropsWithProvenCount(t *testing.T) {
	// More phase-1 bandwidth => more proven => cheaper phase 2.
	rng := rand.New(rand.NewSource(10))
	net := randTree(rng, 50)
	vals := randValues(rng, 50)
	const k = 10
	var prevCost = math.Inf(1)
	prevProven := -1
	for _, b := range []int{1, 3, 6, 10} {
		bw := make([]int, 50)
		for v := 1; v < 50; v++ {
			bw[v] = b
			if s := net.SubtreeSize(network.NodeID(v)); bw[v] > s {
				bw[v] = s
			}
		}
		p, err := plan.NewProof(net, bw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(testEnv(net), p, vals)
		if err != nil {
			t.Fatal(err)
		}
		mop, err := res.State.MopUp(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Proven < prevProven {
			t.Errorf("bandwidth %d: proven %d dropped below %d", b, res.Proven, prevProven)
		}
		cost := mop.Ledger.Total()
		if cost > prevCost+1e-9 && res.Proven > prevProven {
			t.Errorf("bandwidth %d: phase-2 cost %g rose from %g while proven improved", b, cost, prevCost)
		}
		prevCost, prevProven = cost, res.Proven
	}
}

func TestNaiveOneExactAndExpensive(t *testing.T) {
	// NAIVE-1 is NaiveBatch at batch 1: exact, and never cheaper in
	// messages than pulling k values per request.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		k := 1 + rng.Intn(minInt(n, 8))
		env := testEnv(net)
		res, err := NaiveBatch(env, vals, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		truth := TrueTopK(vals, k)
		if len(res.Returned) != len(truth) {
			t.Fatalf("trial %d: got %d values", trial, len(res.Returned))
		}
		for i := range truth {
			if res.Returned[i].Node != truth[i].Node {
				t.Fatalf("trial %d: NAIVE-1 wrong at rank %d", trial, i)
			}
		}
		wide, err := NaiveBatch(env, vals, k, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ledger.Messages < wide.Ledger.Messages {
			t.Errorf("trial %d: NAIVE-1 sent %d messages, fewer than batch %d's %d",
				trial, res.Ledger.Messages, k, wide.Ledger.Messages)
		}
	}
}

func TestNaiveBatchMessageCountGrowsWithK(t *testing.T) {
	// NAIVE-1 (batch 1) pays a request and a reply per value pulled up
	// an edge, so every extra answer costs messages.
	rng := rand.New(rand.NewSource(12))
	net := randTree(rng, 40)
	vals := randValues(rng, 40)
	env := testEnv(net)
	prev := 0
	for _, k := range []int{1, 5, 10, 20} {
		res, err := NaiveBatch(env, vals, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ledger.Messages <= prev {
			t.Errorf("k=%d: %d messages, not more than %d", k, res.Ledger.Messages, prev)
		}
		prev = res.Ledger.Messages
	}
}

func TestFailureModelInflatesCost(t *testing.T) {
	// With every edge failing, every unicast is rerouted at 1.5x its
	// cost; the trigger broadcast is not a unicast and stays as it is.
	net := network.Line(6)
	vals := []float64{0, 1, 2, 3, 4, 5}
	p, err := plan.NewFiltering(net, []int{0, 3, 3, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(Env) (*Result, error)
	}{
		{"Run", func(env Env) (*Result, error) { return Run(env, p, vals) }},
		{"NaiveBatch1", func(env Env) (*Result, error) { return NaiveBatch(env, vals, 3, 1) }},
		{"NaiveBatch4", func(env Env) (*Result, error) { return NaiveBatch(env, vals, 3, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := tc.run(testEnv(net))
			if err != nil {
				t.Fatal(err)
			}
			prob := make([]float64, net.Size())
			for i := range prob {
				prob[i] = 1
			}
			env := testEnv(net)
			env.Failures = &FailureModel{Prob: prob, RerouteFactor: 0.5, Rng: rand.New(rand.NewSource(1))}
			faulty, err := tc.run(env)
			if err != nil {
				t.Fatal(err)
			}
			if faulty.Ledger.Trigger != clean.Ledger.Trigger {
				t.Errorf("trigger %g, clean %g", faulty.Ledger.Trigger, clean.Ledger.Trigger)
			}
			got := faulty.Ledger.Total() - faulty.Ledger.Trigger
			want := 1.5 * (clean.Ledger.Total() - clean.Ledger.Trigger)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("unicast cost %g, want 1.5 x %g = %g", got, want/1.5, want)
			}
			if faulty.Ledger.Messages != clean.Ledger.Messages {
				t.Errorf("%d messages, clean %d", faulty.Ledger.Messages, clean.Ledger.Messages)
			}
			// Results are unaffected (reliable protocol).
			if len(faulty.Returned) != len(clean.Returned) {
				t.Error("failures changed the result")
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	net := network.Line(3)
	p, err := plan.NewFiltering(net, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testEnv(net), p, []float64{1, 2}); err == nil {
		t.Error("Run accepted wrong value count")
	}
	if _, err := Run(Env{}, p, []float64{1, 2, 3}); err == nil {
		t.Error("Run accepted empty env")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestNaiveBatchExactAndInterpolates(t *testing.T) {
	// Batch 1 is NAIVE-1; every batch must return the exact top k.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 35; trial++ {
		n := 4 + rng.Intn(40)
		net := randTree(rng, n)
		vals := randValues(rng, n)
		k := 1 + rng.Intn(minInt(n, 8))
		env := testEnv(net)
		truth := TrueTopK(vals, k)
		prevMsgs := 1 << 30
		for _, batch := range []int{1, 2, 4, 8} {
			res, err := NaiveBatch(env, vals, k, batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Returned) != len(truth) {
				t.Fatalf("trial %d batch %d: %d values", trial, batch, len(res.Returned))
			}
			for i := range truth {
				if res.Returned[i].Node != truth[i].Node {
					t.Fatalf("trial %d batch %d: wrong at rank %d", trial, batch, i)
				}
			}
			// Larger batches never need more messages.
			if res.Ledger.Messages > prevMsgs {
				t.Errorf("trial %d: batch %d used %d messages, more than smaller batch's %d",
					trial, batch, res.Ledger.Messages, prevMsgs)
			}
			prevMsgs = res.Ledger.Messages
		}
	}
}

func TestNaiveBatchValidation(t *testing.T) {
	net := network.Line(3)
	env := testEnv(net)
	if _, err := NaiveBatch(env, []float64{1}, 1, 1); err == nil {
		t.Error("accepted short values")
	}
	if _, err := NaiveBatch(env, []float64{1, 2, 3}, 0, 1); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := NaiveBatch(env, []float64{1, 2, 3}, 1, 0); err == nil {
		t.Error("accepted batch = 0")
	}
}
