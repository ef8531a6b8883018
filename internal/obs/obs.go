// Package obs is a zero-dependency metrics and tracing subsystem for
// the planner/executor/simulator stack: a concurrency-safe registry of
// counters, gauges, and fixed-bucket histograms, plus a structured
// span/event tracer emitting deterministic JSON-lines (see trace.go).
//
// Every handle is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram, or *Tracer are no-ops, so instrumented hot paths
// pay only a nil check when observability is disabled. Callers fetch
// handles once (Registry.Counter et al.) and update them lock-free via
// atomics; the registry mutex is touched only at handle-creation and
// snapshot time.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; create
// one with NewRegistry. A nil *Registry is a valid "disabled" registry:
// its lookup methods return nil handles whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with this name.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with this name. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with this name.
// bounds are the inclusive upper edges of the finite buckets; one
// overflow bucket (+Inf) is implicit. Bounds are sorted, and duplicate
// or non-finite edges are dropped (a duplicated edge would create a
// bucket no observation can ever land in). If the histogram already
// exists its original bounds win. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := sanitizeBounds(bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Sizes returns the number of registered counters, gauges, and
// histograms (all zero on a nil registry). A cheap change detector for
// pollers that mirror the registry (internal/obs/telemetry resyncs its
// probe set only when a size moves).
func (r *Registry) Sizes() (counters, gauges, hists int) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters), len(r.gauges), len(r.hists)
}

// EachCounter calls f for every registered counter. Iteration order is
// unspecified; f must not call registry methods (the registry mutex is
// held). No-op on a nil registry.
func (r *Registry) EachCounter(f func(name string, c *Counter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		f(k, v)
	}
}

// EachGauge calls f for every registered gauge, under the same
// contract as EachCounter. No-op on a nil registry.
func (r *Registry) EachGauge(f func(name string, g *Gauge)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.gauges {
		f(k, v)
	}
}

// EachHistogram calls f for every registered histogram, under the same
// contract as EachCounter (methods on the histogram itself are fine —
// only the registry is locked). No-op on a nil registry.
func (r *Registry) EachHistogram(f func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.hists {
		f(k, v)
	}
}

// sanitizeBounds sorts the finite bucket edges and removes duplicates,
// NaNs, and infinities (the overflow bucket already covers +Inf).
func sanitizeBounds(bounds []float64) []float64 {
	b := make([]float64, 0, len(bounds))
	for _, e := range bounds {
		if !math.IsNaN(e) && !math.IsInf(e, 0) {
			b = append(b, e)
		}
	}
	sort.Float64s(b)
	out := b[:0]
	for i, e := range b {
		if i > 0 && e == b[i-1] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v int64 }

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, d)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is a float metric that can be set or accumulated.
type Gauge struct{ bits uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add accumulates d into the gauge. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if atomic.CompareAndSwapUint64(&g.bits, old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram is a fixed-bucket distribution metric. An observation v
// lands in the first bucket whose upper edge satisfies v <= edge; the
// final bucket is unbounded.
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is overflow
	sumBits uint64
	n       int64
	nan     int64 // NaN observations, kept out of counts/sum/n
}

// Observe records one value. A NaN observation is routed to a
// dedicated counter (see NaNCount) instead of a bucket: folding it
// into Sum would poison the total for the rest of the run. No-op on a
// nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		atomic.AddInt64(&h.nan, 1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive upper edge
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.n, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, nw) {
			return
		}
	}
}

// NaNCount returns how many NaN observations were rejected (0 on a nil
// histogram).
func (h *Histogram) NaNCount() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.nan)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.n)
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// Bounds returns the finite bucket upper edges (nil on a nil histogram).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns one count per bucket, the last being the
// overflow bucket (nil on a nil histogram).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	h.ReadBucketCounts(out)
	return out
}

// NumBuckets returns the bucket count including the overflow bucket
// (0 on a nil histogram), so pollers can size a reusable dst for
// ReadBucketCounts once: bounds are immutable after creation.
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// ReadBucketCounts fills dst with the current per-bucket counts (last
// is overflow) without allocating, reading at most len(dst) buckets.
// It returns the histogram's bucket count so a short dst is
// detectable; 0 on a nil histogram.
func (h *Histogram) ReadBucketCounts(dst []int64) int {
	if h == nil {
		return 0
	}
	n := len(h.counts)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = atomic.LoadInt64(&h.counts[i])
	}
	return len(h.counts)
}
