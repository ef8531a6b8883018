package serve

import (
	"testing"

	"prospector/internal/obs"
)

// TestShedAllocFree pins the zero-allocation contract of metrics.shed,
// which runs on the admission and dispatch paths for every shed
// request: two atomic counter bumps, nothing on the heap.
func TestShedAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMetrics(reg)
	allocs := testing.AllocsPerRun(100, func() {
		m.shed(m.shedFull)
	})
	if allocs != 0 {
		t.Fatalf("metrics.shed allocated %.1f per run, want 0", allocs)
	}
	if got := reg.Counter("serve.shed_total").Value(); got != 101 {
		t.Fatalf("serve.shed_total = %d, want 101 (AllocsPerRun's warm-up call plus 100 runs)", got)
	}
}
