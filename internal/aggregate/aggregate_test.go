package aggregate

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
	"prospector/internal/plan"
)

func testEnv(net *network.Network) exec.Env {
	return exec.Env{Net: net, Costs: plan.NewCosts(net, energy.DefaultModel())}
}

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

func TestExactAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(60)
		net := randTree(rng, n)
		vals := make([]float64, n)
		sum := 0.0
		max, min := math.Inf(-1), math.Inf(1)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
			sum += vals[i]
			max = math.Max(max, vals[i])
			min = math.Min(min, vals[i])
		}
		env := testEnv(net)
		check := func(kind Kind, want float64) {
			res, err := Collect(env, kind, vals, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Value-want) > 1e-9 {
				t.Fatalf("trial %d: %v = %g, want %g", trial, kind, res.Value, want)
			}
			// TAG property: exactly one message per non-root node.
			if res.Ledger.Messages != n-1 {
				t.Fatalf("trial %d: %v used %d messages for %d nodes", trial, kind, res.Ledger.Messages, n)
			}
		}
		check(Max, max)
		check(Min, min)
		check(Sum, sum)
		check(Count, float64(n))
		check(Avg, sum/float64(n))
	}
}

func TestQDigestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		q, err := NewQDigest(10, 25)
		if err != nil {
			t.Fatal(err)
		}
		n := 500 + rng.Intn(1500)
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(rng.Intn(1024))
			if err := q.Add(data[i]); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(data, func(a, b int) bool { return data[a] < data[b] })
		bound := q.ErrorBound()
		for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			est, err := q.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			// Rank of the estimate: values <= est.
			rank := int64(sort.Search(len(data), func(i int) bool { return data[i] > est }))
			target := int64(math.Ceil(phi * float64(n)))
			diff := rank - target
			if diff < 0 {
				diff = -diff
			}
			if diff > bound {
				t.Errorf("trial %d phi=%.2f: rank error %d exceeds bound %d (n=%d size=%d)",
					trial, phi, diff, bound, n, q.Size())
			}
		}
		// The summary must actually be compressed.
		if q.Size() > 4*25*10 {
			t.Errorf("trial %d: digest holds %d entries", trial, q.Size())
		}
	}
}

func TestQDigestMergeEquivalence(t *testing.T) {
	// Merging two digests approximates digesting the union.
	rng := rand.New(rand.NewSource(3))
	a, _ := NewQDigest(8, 30)
	b, _ := NewQDigest(8, 30)
	var union []uint64
	for i := 0; i < 400; i++ {
		x := uint64(rng.Intn(256))
		union = append(union, x)
		if i%2 == 0 {
			if err := a.Add(x); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := b.Add(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 400 {
		t.Fatalf("merged count %d", a.Count())
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	med, err := a.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trueMed := union[200]
	rank := int64(sort.Search(len(union), func(i int) bool { return union[i] > med }))
	diff := rank - 200
	if diff < 0 {
		diff = -diff
	}
	if diff > a.ErrorBound() {
		t.Errorf("merged median %d (rank err %d) exceeds bound %d; true %d", med, diff, a.ErrorBound(), trueMed)
	}
	// Incompatible merges rejected.
	c, _ := NewQDigest(9, 30)
	if err := a.Merge(c); err == nil {
		t.Error("merged incompatible domains")
	}
}

func TestQDigestEntriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q, _ := NewQDigest(10, 15)
	for i := 0; i < 300; i++ {
		if err := q.Add(uint64(rng.Intn(1024))); err != nil {
			t.Fatal(err)
		}
	}
	back, err := FromEntries(10, 15, q.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != q.Count() {
		t.Fatalf("count %d vs %d", back.Count(), q.Count())
	}
	m1, _ := q.Quantile(0.5)
	m2, _ := back.Quantile(0.5)
	if m1 != m2 {
		t.Errorf("medians diverge: %d vs %d", m1, m2)
	}
	if _, err := FromEntries(10, 15, map[uint64]int64{0: 1}); err == nil {
		t.Error("accepted position 0")
	}
	if _, err := FromEntries(10, 15, map[uint64]int64{3: -1}); err == nil {
		t.Error("accepted negative count")
	}
}

func TestQDigestProperties(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := 5 + int(kRaw)%40
		q, err := NewQDigest(16, k)
		if err != nil {
			return false
		}
		for _, x := range raw {
			if err := q.Add(uint64(x)); err != nil {
				return false
			}
		}
		if q.Count() != int64(len(raw)) {
			return false
		}
		// Total mass is preserved by compression.
		total := int64(0)
		for _, c := range q.Entries() {
			total += c
		}
		if total != int64(len(raw)) {
			return false
		}
		// Quantile estimates are within the domain.
		med, err := q.Quantile(0.5)
		return err == nil && med < 1<<16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCollectMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(80)
		net := randTree(rng, n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 20 + rng.NormFloat64()*5
		}
		env := testEnv(net)
		res, err := Collect(env, Median, vals, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		trueMed := sorted[n/2]
		// The estimate must land within a modest value band: rank bound
		// plus quantization.
		spread := sorted[len(sorted)-1] - sorted[0]
		if math.Abs(res.Value-trueMed) > spread/2 {
			t.Errorf("trial %d: median estimate %.2f vs true %.2f (spread %.2f)",
				trial, res.Value, trueMed, spread)
		}
		if res.Ledger.Messages != n-1 {
			t.Errorf("trial %d: %d messages", trial, res.Ledger.Messages)
		}
		if res.DigestSize < 1 {
			t.Errorf("trial %d: empty digest", trial)
		}
	}
}

func TestMedianCheaperThanNaiveK(t *testing.T) {
	// The point of q-digest: on multihop networks with real depth, a
	// median costs far less than hauling every raw value to the root
	// (upper edges carry bounded summaries instead of whole subtrees).
	rng := rand.New(rand.NewSource(6))
	net := network.Line(150)
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	env := testEnv(net)
	res, err := Collect(env, Median, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Exact median needs everything at the root: the all-values cost.
	all := 0.0
	for v := 1; v < net.Size(); v++ {
		all += env.Costs.Msg[v] + float64(env.Costs.Val[v])*float64(net.SubtreeSize(network.NodeID(v)))
	}
	if res.Ledger.Collection >= all {
		t.Errorf("q-digest median cost %.1f not below exact %.1f", res.Ledger.Collection, all)
	}
}

func TestCollectValidation(t *testing.T) {
	net := network.Line(3)
	env := testEnv(net)
	if _, err := Collect(env, Max, []float64{1}, Options{}); err == nil {
		t.Error("accepted short values")
	}
	if _, err := Collect(exec.Env{}, Max, []float64{1, 2, 3}, Options{}); err == nil {
		t.Error("accepted empty env")
	}
	if _, err := Collect(env, Kind(99), []float64{1, 2, 3}, Options{}); err == nil {
		t.Error("accepted unknown kind")
	}
	if _, err := NewQDigest(0, 5); err == nil {
		t.Error("accepted logU = 0")
	}
	if _, err := NewQDigest(8, 0); err == nil {
		t.Error("accepted compression = 0")
	}
	q, _ := NewQDigest(4, 5)
	if err := q.Add(16); err == nil {
		t.Error("accepted out-of-domain value")
	}
	if _, err := q.Quantile(0.5); err == nil {
		t.Error("quantile of empty digest")
	}
}
