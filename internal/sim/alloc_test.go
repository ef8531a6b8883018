package sim

import (
	"io"
	"math/rand"
	"testing"

	"prospector/internal/network"
	"prospector/internal/obs"
	"prospector/internal/plan"
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
