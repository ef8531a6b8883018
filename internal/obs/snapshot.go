package obs

import "strconv"

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	// NaNCount tallies NaN observations rejected by Observe.
	NaNCount int64 `json:"nan_count,omitempty"`
}

// Snapshot is a frozen view of a registry; its JSON encoding is the
// metrics block of a run manifest (internal/ledger).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state, including derived
// p50/p95/p99 quantile gauges for every non-empty histogram (see
// addDerivedQuantiles). On a nil registry it returns an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = HistogramSnapshot{
			Bounds:   h.Bounds(),
			Counts:   h.BucketCounts(),
			Count:    h.Count(),
			Sum:      h.Sum(),
			NaNCount: h.NaNCount(),
		}
	}
	s.addDerivedQuantiles()
	return s
}

// quantileProbes are the derived quantiles published for every
// non-empty histogram at snapshot time.
var quantileProbes = []struct {
	suffix string
	q      float64
}{
	{"p50", 0.50},
	{"p95", 0.95},
	{"p99", 0.99},
}

// addDerivedQuantiles adds one gauge per probe and non-empty histogram,
// named `<hist>.p50` (p95, p99 likewise), so baseline rules and
// dashboards can reference latency quantiles without re-deriving them
// from raw buckets. The gauges flow into everything that consumes a
// snapshot: the Prometheus exposition and the run manifest.
func (s *Snapshot) addDerivedQuantiles() {
	for k, h := range s.Histograms {
		if h.Count == 0 {
			continue
		}
		for _, p := range quantileProbes {
			s.Gauges[k+"."+p.suffix] = h.Quantile(p.q)
		}
	}
}

// Quantile estimates the q-quantile from the bucket counts, assuming
// observations spread uniformly inside each bucket (the same model
// Prometheus' histogram_quantile uses): the target rank is located in
// the cumulative counts and interpolated linearly between the covering
// bucket's edges. A rank landing in the overflow bucket clamps to the
// highest finite bound. Degenerate shapes fall back conservatively:
// an empty histogram reports 0, and one with no finite buckets reports
// the mean (the only location signal it has). q is clamped to [0, 1].
func (h HistogramSnapshot) Quantile(q float64) float64 {
	return BucketQuantile(h.Bounds, h.Counts, h.Count, h.Sum, q)
}

// BucketQuantile is the allocation-free core of HistogramSnapshot.
// Quantile, shared with the windowed-quantile path in
// internal/obs/telemetry (which feeds it per-tick bucket deltas
// instead of cumulative counts). counts has len(bounds)+1 entries, the
// last being the overflow bucket; count and sum are the matching
// totals.
func BucketQuantile(bounds []float64, counts []int64, count int64, sum float64, q float64) float64 {
	if count == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	if len(bounds) == 0 {
		return sum / float64(count)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	cum := int64(0)
	for i, bc := range counts[:len(bounds)] {
		prev := cum
		cum += bc
		if bc == 0 || float64(cum) < rank {
			continue
		}
		hi := bounds[i]
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		} else if hi <= 0 {
			// No defensible lower edge below a non-positive first bound.
			return hi
		}
		pos := (rank - float64(prev)) / float64(bc)
		if pos < 0 {
			pos = 0
		}
		if pos > 1 {
			pos = 1
		}
		return lo + (hi-lo)*pos
	}
	return bounds[len(bounds)-1]
}

func emptySnapshot() *Snapshot {
	return &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
