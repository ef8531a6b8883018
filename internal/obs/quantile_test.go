package obs

import (
	"math"
	"testing"
)

func TestHistogramSnapshotQuantile(t *testing.T) {
	cases := []struct {
		name string
		h    HistogramSnapshot
		q    float64
		want float64
	}{
		{
			name: "interpolates within covering bucket",
			h:    HistogramSnapshot{Bounds: []float64{1, 10}, Counts: []int64{1, 1, 1}, Count: 3, Sum: 55.5},
			q:    0.5, want: 5.5, // rank 1.5, halfway through (1, 10]
		},
		{
			name: "first bucket interpolates from zero",
			h:    HistogramSnapshot{Bounds: []float64{4}, Counts: []int64{2, 0}, Count: 2},
			q:    0.5, want: 2, // rank 1, halfway through [0, 4]
		},
		{
			name: "overflow rank clamps to highest bound",
			h:    HistogramSnapshot{Bounds: []float64{1, 10}, Counts: []int64{0, 0, 5}, Count: 5},
			q:    0.99, want: 10,
		},
		{
			name: "leading empty bucket is skipped",
			h:    HistogramSnapshot{Bounds: []float64{1, 2, 3}, Counts: []int64{0, 2, 2, 0}, Count: 4},
			q:    0.25, want: 1.5, // rank 1, halfway through (1, 2]
		},
		{
			name: "no finite buckets falls back to the mean",
			h:    HistogramSnapshot{Counts: []int64{4}, Count: 4, Sum: 10},
			q:    0.5, want: 2.5,
		},
		{
			name: "non-positive first bound returns the bound",
			h:    HistogramSnapshot{Bounds: []float64{-1, 10}, Counts: []int64{3, 0, 0}, Count: 3},
			q:    0.5, want: -1,
		},
		{
			name: "q clamped above",
			h:    HistogramSnapshot{Bounds: []float64{8}, Counts: []int64{4, 0}, Count: 4},
			q:    1.5, want: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.h.Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
			}
		})
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

// TestSnapshotDerivedQuantiles pins that Snapshot publishes the p50/
// p95/p99 gauges for non-empty histograms only.
func TestSnapshotDerivedQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty.hist", []float64{1})
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	s := r.Snapshot()
	for _, name := range []string{"lat.p50", "lat.p95", "lat.p99"} {
		if _, ok := s.Gauges[name]; !ok {
			t.Errorf("derived gauge %s missing; gauges: %v", name, s.Gauges)
		}
	}
	if got := s.Gauges["lat.p50"]; math.Abs(got-5.5) > 1e-12 {
		t.Errorf("lat.p50 = %g, want 5.5", got)
	}
	for name := range s.Gauges {
		if len(name) >= 10 && name[:10] == "empty.hist" {
			t.Errorf("empty histogram grew a derived gauge %s", name)
		}
	}
}
