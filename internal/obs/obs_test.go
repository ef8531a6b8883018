package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp: a nil registry, and every handle it hands out,
// must be safe to use and observably inert.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned live handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(10)
	g.Set(3)
	g.Add(4)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles accumulated state")
	}
	if h.Bounds() != nil || h.BucketCounts() != nil {
		t.Error("nil histogram returned buckets")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry exposition: %q", buf.String())
	}
	var tr *Tracer
	tr.Event("x", 0, F("a", 1))
	tr.Span("y", 0, 1)
	if tr.Err() != nil {
		t.Error("nil tracer reported an error")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run with -race. Handles are fetched concurrently too, exercising the
// create-on-demand path.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Histogram("shared.hist", []float64{0.25, 0.5, 0.75}).Observe(float64(i%4) / 4)
				if i%100 == 0 {
					r.Snapshot() // snapshots race against writers
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if got := r.Counter("shared.counter").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("shared.gauge").Value(); got != float64(want) {
		t.Errorf("gauge = %g, want %d", got, want)
	}
	if got := r.Histogram("shared.hist", nil).Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

// TestHistogramBucketEdges pins the bucket rule: an observation equal
// to an upper edge lands in that bucket (inclusive upper edges), and
// anything above the last edge lands in the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0000001, 2, 3, 4, 4.5, 100} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	want := []int64{2, 2, 2, 2} // (-inf,1], (1,2], (2,4], (4,+inf)
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+1+1.0000001+2+3+4+4.5+100 {
		t.Errorf("sum = %g", h.Sum())
	}
}

// TestHistogramIdentity: a second Histogram call with different bounds
// returns the same underlying histogram (original bounds win).
func TestHistogramIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", []float64{1, 2})
	b := r.Histogram("h", []float64{5})
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	if got := b.Bounds(); len(got) != 2 {
		t.Errorf("bounds = %v, want the original [1 2]", got)
	}
}

// TestSnapshotAndText pins the snapshot's values and their Prometheus
// text exposition: cumulative buckets, _sum/_count, and the derived
// quantile gauges.
func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.gauge").Set(2.5)
	h := r.Histogram("c.hist", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	snap := r.Snapshot()
	if snap.Counters["b.count"] != 3 || snap.Gauges["a.gauge"] != 2.5 {
		t.Errorf("snapshot wrong: %+v", snap)
	}
	if hs := snap.Histograms["c.hist"]; hs.Count != 3 || hs.Sum != 55.5 {
		t.Errorf("snapshot histogram wrong: %+v", hs)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE a_gauge gauge`,
		`a_gauge 2.5`,
		`# TYPE b_count counter`,
		`b_count 3`,
		`# TYPE c_hist histogram`,
		`c_hist_bucket{le="1"} 1`,
		`c_hist_bucket{le="10"} 2`,
		`c_hist_bucket{le="+Inf"} 3`,
		`c_hist_sum 55.5`,
		`c_hist_count 3`,
		// Derived quantile gauges: rank p50 = 1.5 interpolates halfway
		// through the (1, 10] bucket; p95/p99 land in the overflow
		// bucket and clamp to the highest finite bound.
		`# TYPE c_hist_p50 gauge`,
		`c_hist_p50 5.5`,
		`# TYPE c_hist_p95 gauge`,
		`c_hist_p95 10`,
		`# TYPE c_hist_p99 gauge`,
		`c_hist_p99 10`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("text exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestHistogramBoundsSanitized: duplicate and unsorted edges are
// deduped and sorted; NaN and infinite edges are dropped.
func TestHistogramBoundsSanitized(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{2, 1, 2, math.NaN(), math.Inf(1), 1, math.Inf(-1)})
	got := h.Bounds()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("bounds = %v, want [1 2]", got)
	}
	if counts := h.BucketCounts(); len(counts) != 3 {
		t.Fatalf("%d buckets for 2 edges, want 3", len(counts))
	}
}

// TestHistogramNaNObservations: NaN observations land in a dedicated
// counter, never in buckets, count, or sum.
func TestHistogramNaNObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(math.NaN())
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("NaN leaked into count/sum: %d %g", h.Count(), h.Sum())
	}
	if h.NaNCount() != 2 {
		t.Fatalf("NaNCount = %d, want 2", h.NaNCount())
	}
	snap := r.Snapshot()
	if snap.Histograms["h"].NaNCount != 2 {
		t.Errorf("snapshot NaNCount = %d", snap.Histograms["h"].NaNCount)
	}
	var nilH *Histogram
	if nilH.NaNCount() != 0 {
		t.Error("nil histogram NaNCount != 0")
	}
}

// TestWritePrometheus pins the exposition format: sanitized names, one
// TYPE line per family (also when two names sanitize alike), and the
// NaN tally as its own counter family.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.messages").Add(4)
	r.Counter("sim-messages").Add(1)
	r.Gauge("sim.latency_seconds").Set(0.25)
	h := r.Histogram("solve_s", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(math.NaN())

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE sim_latency_seconds gauge`,
		`sim_latency_seconds 0.25`,
		`# TYPE sim_messages counter`,
		`sim_messages 1`,
		`sim_messages 4`,
		`# TYPE solve_s histogram`,
		`solve_s_bucket{le="0.1"} 1`,
		`solve_s_bucket{le="1"} 2`,
		`solve_s_bucket{le="+Inf"} 3`,
		`solve_s_sum 5.55`,
		`solve_s_count 3`,
		`# TYPE solve_s_nan_observations counter`,
		`solve_s_nan_observations 1`,
		`# TYPE solve_s_p50 gauge`,
		`solve_s_p50 0.55`,
		`# TYPE solve_s_p95 gauge`,
		`solve_s_p95 1`,
		`# TYPE solve_s_p99 gauge`,
		`solve_s_p99 1`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("prometheus exposition:\n%swant:\n%s", buf.String(), want)
	}

	var nilSnap *Snapshot
	if err := nilSnap.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil snapshot exposition: %v", err)
	}
}

// BenchmarkObsRegistry measures the raw handle-update costs backing the
// exec/lp overhead benchmarks.
func BenchmarkObsRegistry(b *testing.B) {
	b.Run("counter-nil", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-live", func(b *testing.B) {
		c := NewRegistry().Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-live", func(b *testing.B) {
		h := NewRegistry().Histogram("h", []float64{1e-5, 1e-4, 1e-3, 1e-2})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1e-3)
		}
	})
}
