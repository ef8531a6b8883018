package obs

import (
	"io"
	"testing"
)

// TestFastPathsAllocFree pins the zero-allocation contract of this
// package's fast paths: counter/gauge/histogram updates and trace
// emission through a warmed tracer perform zero heap allocations. The
// field slices are built once and spread, matching how the production
// emitters pass their scratch.
func TestFastPathsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1, 2, 4})
	tr := NewTracer(io.Discard)
	sp := tr.StartSpan(nil, "root", 0, FStr("plan", "proof"))
	evFields := []Field{FInt("node", 3), FFloat("t", 0.5)}
	spFields := []Field{FBool("ok", true), FStr("kind", "warm")}
	// Warm: grow the tracer's record buffer to the widest record.
	tr.Event("ev", 1, evFields...)
	sp.Event("ev", 1, evFields...)
	sp.Span("child", 1, 2, spFields...)

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(2.5)
		tr.Event("ev", 1, evFields...)
		sp.Event("ev", 1, evFields...)
		sp.Span("child", 1, 2, spFields...)
	})
	if allocs != 0 {
		t.Fatalf("obs fast paths allocated %v times per round, want 0", allocs)
	}
	sp.End(3)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
