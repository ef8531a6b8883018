// Package telemetry turns the end-of-run observability substrate into
// a live one. Everything internal/obs records is cumulative — final
// counters, one snapshot, a manifest — which is the wrong shape for
// long-running services (the concurrent plan-serving layer, standing
// top-k monitors): those need per-window rates, live health signals,
// and after-the-fact evidence when an epoch goes bad.
//
// Five pieces:
//
//   - Collector: fixed-capacity ring-buffer time series attached to the
//     registry's counters/gauges/histograms, sampled on an explicit
//     Tick(now). Ticks are epoch-driven in sim/exec runs (deterministic
//     "now" = epoch index) and interval-driven under -listen (wall
//     seconds). Each counter yields cumulative/delta/rate series, each
//     histogram windowed p50/p95/p99 from bucket deltas — so
//     lp.warm_hit_rate, plans/sec, and energy/epoch become live series
//     instead of end-of-run scalars.
//   - RuntimeBridge: samples runtime/metrics (heap, GC pause,
//     goroutines, sched latency) into ordinary go.* registry gauges,
//     stdlib-only. internal/ledger quarantines the go.* family into the
//     manifest's environment block, so the bridge never poisons
//     manifest determinism.
//   - Flight: a bounded ring of recent trace records (the flight
//     recorder). When a live rule — internal/regress rule syntax,
//     evaluated against the windowed series — breaches, Monitor dumps
//     the ring to a file readable by `tracetool flight`.
//   - HTTP surfaces: /healthz, /readyz, /debug/telemetry, mounted next
//     to the existing /metrics via obs.Endpoint.
//   - Session: one command run's observability lifecycle (registry,
//     tracer, monitor, -listen server, profiles, run manifest), shared
//     by every CLI.
//
// The sampling tick (Collector.Tick) and the flight-recorder append
// (Flight.Append) allocate nothing in steady state, so the layer is
// safe to leave on in the hot path.
package telemetry

// Ring is a fixed-capacity float64 time-series window: pushes past
// capacity evict the oldest value. The zero value is unusable; create
// with newRing. Not self-locking — the owning Collector serializes
// access.
type Ring struct {
	buf  []float64
	head int // index of the oldest value
	n    int
}

func newRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]float64, capacity)}
}

// Push appends v, evicting the oldest value when full.
func (r *Ring) Push(v float64) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// Len returns the number of stored values.
func (r *Ring) Len() int { return r.n }

// Cap returns the window capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Last returns the newest value and whether one exists.
func (r *Ring) Last() (float64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.buf[(r.head+r.n-1)%len(r.buf)], true
}

// At returns the i-th stored value, oldest first; i must be in
// [0, Len()).
func (r *Ring) At(i int) float64 {
	return r.buf[(r.head+i)%len(r.buf)]
}

// AppendTo appends the window oldest-to-newest onto dst and returns
// the extended slice.
func (r *Ring) AppendTo(dst []float64) []float64 {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}
