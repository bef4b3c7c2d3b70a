package stats

import (
	"errors"
	"math"
	"sort"
)

// The standalone statistics below are the oracle the fused Describe is
// pinned against (TestDescribeMatchesStandaloneBitwise): each computes
// one field of Summary on its own, the way Describe did before it fused
// them. Only tests use them.

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Variance returns the unbiased (n-1) sample variance of xs. It returns
// 0 when fewer than two samples are available. Both the center and the
// squared-deviation sum use compensated summation, matching the
// precision Describe's mean always had — on large-magnitude counters
// (~1e9 baselines) the uncompensated version loses several digits.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := KahanMean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Skewness returns the adjusted Fisher–Pearson sample skewness of xs
// (the definition scipy/pandas use), or 0 when fewer than three samples
// are available or the variance is zero.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := KahanMean(xs)
	var m2, c2, m3, c3 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		y := d2 - c2
		t := m2 + y
		c2 = (t - m2) - y
		m2 = t
		y = d2*d - c3
		t = m3 + y
		c3 = (t - m3) - y
		m3 = t
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return math.Sqrt(n*(n-1)) / (n - 2) * g1
}

// Kurtosis returns the sample excess kurtosis of xs with the standard
// bias correction (Fisher definition: normal distribution → 0), or 0
// when fewer than four samples are available or the variance is zero.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	m := KahanMean(xs)
	var m2, c2, m4, c4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		y := d2 - c2
		t := m2 + y
		c2 = (t - m2) - y
		m2 = t
		y = d2*d2 - c4
		t = m4 + y
		c4 = (t - m4) - y
		m4 = t
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	g2 := m4/(m2*m2) - 3
	return ((n - 1) / ((n - 2) * (n - 3))) * ((n+1)*g2 + 6)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks — the same method as
// numpy.percentile's default. The input is not modified. It returns an
// error for empty input or out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// Percentiles returns the requested percentiles of xs in one pass over a
// single sorted copy, which is markedly cheaper than repeated Percentile
// calls when extracting Taxonomist-style feature vectors.
func Percentiles(xs []float64, ps []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of range [0,100]")
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out, nil
}
