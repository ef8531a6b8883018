// Package stats provides the small numeric helpers the workloads and
// experiment harnesses need: the standard normal CDF and quantile
// function, and summary statistics.
package stats

import (
	"fmt"
	"math"
)

// NormCDF returns P(Z <= x) for a standard normal Z.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormInv returns the quantile function (inverse CDF) of the standard
// normal distribution, using Acklam's rational approximation refined by
// one Halley step; absolute error is below 1e-9 across (0, 1).
func NormInv(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case exactly(p, 0):
			return math.Inf(-1)
		case exactly(p, 1):
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step using the exact CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 for fewer than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Summary is a compact description of a series of measurements.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		s.Mean, s.Min, s.Max = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Mean = Mean(xs)
	s.Std = StdDev(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// String formats a Summary for experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// Cholesky computes the lower-triangular factor L (row-major, n x n)
// of a symmetric positive-definite matrix A with A = L Lᵀ. It reports
// an error if A is not positive definite (within a small tolerance).
func Cholesky(a []float64, n int) ([]float64, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("stats: matrix has %d entries for n=%d", len(a), n)
	}
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 1e-12 {
					return nil, fmt.Errorf("stats: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return l, nil
}
