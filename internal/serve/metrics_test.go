package serve

import (
	"testing"

	"prospector/internal/obs"
)

// TestLatencyBucketsResolveMicroseconds checks that the latency
// histograms resolve the microsecond plans and waits a frontier hit
// gives: 10 µs observations must read p95 below 0.02 ms, where a first
// bucket ending at 0.05 ms reads them as 0.0475 ms. The bounds the
// serve.plan_ms.p99 flight rule is measured against must still be
// there.
func TestLatencyBucketsResolveMicroseconds(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMetrics(reg)
	for i := 0; i < 200; i++ {
		m.planMS.Observe(0.01)
		m.batchWaitMS.Observe(0.01)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"serve.plan_ms", "serve.batch_wait_ms"} {
		if p95 := snap.Histograms[name].Quantile(0.95); !(p95 < 0.02) {
			t.Errorf("%s p95 of 10 µs observations reads %g ms, want < 0.02", name, p95)
		}
	}
	has := map[float64]bool{}
	for _, b := range latencyMSBounds {
		has[b] = true
	}
	for _, b := range []float64{0.05, 1, 10, 100, 250, 1000} {
		if !has[b] {
			t.Errorf("bound %g ms is gone from latencyMSBounds", b)
		}
	}
}
