package sim

import (
	"io"
	"math/rand"
	"testing"

	"prospector/internal/core"
	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
	"prospector/internal/sample"
	"prospector/internal/workload"
)

// TestDrainAllocFree pins the zero-allocation contract of drain (and
// seedTriggers): once newSim has carved the arenas and one
// epoch has warmed the event heap and the trace scratch, replaying
// epochs performs zero heap allocations — with metrics and tracing
// enabled. The medium is lossless so every epoch replays the same
// event sequence and the warm capacities are exact.
func TestDrainAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	net := randTree(rng, n)
	vals := randValues(rng, n)
	p, err := plan.NewFiltering(net, randBandwidth(rng, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.Obs = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(io.Discard)
	s := newSim(cfg, p, vals)
	s.run() // warm: size the event heap, value pools, and trace scratch

	allocs := testing.AllocsPerRun(100, func() {
		s.reset()
		s.seedTriggers()
		s.drain()
	})
	if allocs != 0 {
		t.Fatalf("drain allocated %v times per epoch, want 0", allocs)
	}
}

// BenchmarkSimDrain measures the warmed per-epoch event loop; its
// allocs/op must stay 0 (the CI bench smoke enforces this with
// -benchmem).
func BenchmarkSimDrain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	net := randTree(rng, n)
	vals := randValues(rng, n)
	p, err := plan.NewFiltering(net, randBandwidth(rng, net, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(net)
	s := newSim(cfg, p, vals)
	s.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		s.seedTriggers()
		s.drain()
	}
}

// TestRunAllocsIndependentOfRange pins the interference graph's cost
// model: the network builds it once per range, so a full Run with
// contention on allocates exactly what the same run with contention
// off does, and no more at a wider range.
func TestRunAllocsIndependentOfRange(t *testing.T) {
	net, err := network.Build(network.DefaultBuildConfig(200), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	vals := randValues(rand.New(rand.NewSource(2)), net.Size())
	p, err := plan.NewFiltering(net, randBandwidth(rand.New(rand.NewSource(3)), net, 1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(r float64) float64 {
		cfg := DefaultConfig(net)
		cfg.InterferenceRange = r
		cfg.Rng = rand.New(rand.NewSource(4))
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(cfg, p, vals); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := allocs(0)
	for _, r := range []float64{10, 25} {
		if on := allocs(r); on != off {
			t.Errorf("Run allocates %v times at InterferenceRange %v, %v with contention off", on, r, off)
		}
	}
}

// TestRunAllocsBounded pins what a Run allocates: the run state, the
// node-state block, the value arena, the event storage, and the Result
// with its per-node slices and returned list. That is a constant number
// of blocks, the same at 40 nodes as at 200, with contention on or off.
func TestRunAllocsBounded(t *testing.T) {
	const most = 8
	want := -1.0
	for _, n := range []int{40, 200} {
		net, err := network.Build(network.DefaultBuildConfig(n), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		vals := randValues(rand.New(rand.NewSource(2)), n)
		p, err := plan.NewFiltering(net, randBandwidth(rand.New(rand.NewSource(3)), net, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{0, 10} {
			cfg := DefaultConfig(net)
			cfg.InterferenceRange = r
			cfg.Rng = rand.New(rand.NewSource(4))
			got := testing.AllocsPerRun(20, func() {
				if _, err := Run(cfg, p, vals); err != nil {
					t.Fatal(err)
				}
			})
			if want < 0 {
				want = got
			}
			if got != want || got > most {
				t.Errorf("Run allocates %v times at n=%d, InterferenceRange %v; want the same %v everywhere, at most %d",
					got, n, r, want, most)
			}
		}
	}
}

// standingShape builds the standing_sim benchmark workload's shape: a
// 200-node deployment, an LP+LF plan at 0.3 times the NAIVE-k cost for
// k = 20, 5% loss on every edge and a 10 m interference range, plus
// epochs of Gaussian-field readings to replay through it.
func standingShape(tb testing.TB, epochs int) (Config, *plan.Plan, [][]float64) {
	tb.Helper()
	const n, k, window = 200, 20, 8
	rng := rand.New(rand.NewSource(9))
	net, err := network.Build(network.DefaultBuildConfig(n), rng)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := workload.NewGaussianField(workload.DefaultGaussianConfig(n), rng)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := sample.NewSet(n, k, window)
	if err != nil {
		tb.Fatal(err)
	}
	if err := set.AddAll(workload.Draw(src, window)); err != nil {
		tb.Fatal(err)
	}
	costs := plan.NewCosts(net, energy.DefaultModel())
	naive, err := core.NaiveKPlan(net, k)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := core.NewLPFilter(core.Config{Net: net, Costs: costs, Samples: set, K: k})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := pl.Plan(0.3 * naive.CollectionCost(net, costs))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.LossProb = make([]float64, n)
	for v := 1; v < n; v++ {
		cfg.LossProb[v] = 0.05
	}
	cfg.InterferenceRange = 10
	cfg.Rng = rand.New(rand.NewSource(1))
	return cfg, p, workload.Draw(src, epochs)
}

// BenchmarkSimRun measures one whole Run, construction included, at
// the standing_sim workload's shape. CI reports it with -benchmem; Run
// allocates by design (its Result), so it sits outside the zero-alloc
// gate.
func BenchmarkSimRun(b *testing.B) {
	cfg, p, epochs := standingShape(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, p, epochs[i%len(epochs)]); err != nil {
			b.Fatal(err)
		}
	}
}
