package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormCDF(%g) = %.12f, want %.12f", c.x, got, c.want)
		}
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		p := (float64(raw) + 1) / (float64(math.MaxUint32) + 2)
		x := NormInv(p)
		return math.Abs(NormCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormInvEdges(t *testing.T) {
	if !math.IsInf(NormInv(0), -1) || !math.IsInf(NormInv(1), 1) {
		t.Error("NormInv at {0,1} not infinite")
	}
	if !math.IsNaN(NormInv(-0.1)) || !math.IsNaN(NormInv(1.1)) {
		t.Error("NormInv outside [0,1] not NaN")
	}
	if got := NormInv(0.5); math.Abs(got) > 1e-12 {
		t.Errorf("NormInv(0.5) = %g", got)
	}
	// Deep tails stay finite and monotone.
	if a, b := NormInv(1e-10), NormInv(1e-9); !(a < b && a < -6) {
		t.Errorf("tail quantiles %g, %g", a, b)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138089935299395) > 1e-12 {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of singleton not 0")
	}
}

func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	s := Summarize(xs)
	if s.N != 2000 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-3) > 0.2 {
		t.Errorf("Mean = %g, want ~3", s.Mean)
	}
	if math.Abs(s.Std-2) > 0.2 {
		t.Errorf("Std = %g, want ~2", s.Std)
	}
	if s.Min >= s.Mean || s.Max <= s.Mean {
		t.Errorf("min %g / max %g vs mean %g", s.Min, s.Max, s.Mean)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty summary = %+v", empty)
	}
}
