package core

import (
	"testing"

	"prospector/internal/network"
)

// TestParametricSolveAllocFree pins the zero-allocation contract of
// paramLP.solve: once the program is built and the basis chain is
// established, serving a budget from the warm chain performs zero heap
// allocations. The cold cases (first solve, broken-chain recovery)
// never fire here because the chain stays intact.
func TestParametricSolveAllocFree(t *testing.T) {
	s := makeScenario(t, 5, 30, 6, 8)
	pl, err := NewLPNoFilter(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: the first Plan builds the model and cold-solves; the second
	// establishes the warm chain's steady state.
	for i := 0; i < 2; i++ {
		if _, err := pl.Plan(60); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		sol, err := pl.solve(s.cfg, 60)
		if err != nil {
			t.Fatal(err)
		}
		_ = sol
	})
	if allocs != 0 {
		t.Fatalf("warm parametric solve allocated %v times per call, want 0", allocs)
	}
}

// coverageDeltaScenario is a 200-node network with a 20-sample window,
// a rounded LP+LF bandwidth assignment and its filled pool table.
func coverageDeltaScenario(tb testing.TB) (Config, []int, *poolTable) {
	s := makeScenario(tb, 9, 200, 20, 20)
	pl, err := NewLPFilter(s.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := pl.Plan(400)
	if err != nil {
		tb.Fatal(err)
	}
	tab := &poolTable{}
	tab.fill(s.cfg, p.Bandwidth)
	return s.cfg, p.Bandwidth, tab
}

// TestCoverageDeltaAllocFree pins the zero-allocation contract of
// poolTable.moved: scoring every ±1 step of a filled table
// allocates nothing.
func TestCoverageDeltaAllocFree(t *testing.T) {
	cfg, bw, tab := coverageDeltaScenario(t)
	allocs := testing.AllocsPerRun(20, func() {
		for v := 1; v < cfg.Net.Size(); v++ {
			tab.moved(cfg.Net, bw, network.NodeID(v), true)
			if bw[v] > 0 {
				tab.moved(cfg.Net, bw, network.NodeID(v), false)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("scoring every step allocated %v times, want 0", allocs)
	}
}

// coverageDeltaSink keeps the benchmarked scores live.
var coverageDeltaSink int

// BenchmarkCoverageDelta scores every ±1 step of one rounding table;
// its allocs/op must stay 0 (the CI bench smoke enforces this with
// -benchmem).
func BenchmarkCoverageDelta(b *testing.B) {
	cfg, bw, tab := coverageDeltaScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 1; v < cfg.Net.Size(); v++ {
			coverageDeltaSink += tab.moved(cfg.Net, bw, network.NodeID(v), true)
			if bw[v] > 0 {
				coverageDeltaSink += tab.moved(cfg.Net, bw, network.NodeID(v), false)
			}
		}
	}
}
