package stats

import "math"

// Sum returns the sum of xs using Kahan compensated summation, which
// keeps long 1 Hz telemetry windows accurate even when large baselines
// carry small fluctuations.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// KahanMean returns the compensated-summation mean of xs, or 0 for empty
// input. This is the mean used for fingerprint construction.
func KahanMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Min returns the minimum of xs, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics of a sample window. It is
// the statistical core of both the EFD (Mean) and the Taxonomist feature
// extraction (all fields).
type Summary struct {
	Count    int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	Skewness float64
	Kurtosis float64
	P5       float64
	P25      float64
	P50      float64
	P75      float64
	P95      float64
}

// Describe computes a Summary of xs. Empty input yields a zero Summary.
//
// It is the fused form of the individual statistics: one sorted copy
// serves all five percentiles, and a single central-moment pass
// accumulates Σd², Σd³ and Σd⁴ together. Each power keeps its own
// compensated summation and the shared mean is the same KahanMean the
// standalone functions compute, so every field is bit-identical to
// calling Variance/Skewness/Kurtosis/Percentiles separately — at a
// third of the passes over the data.
func Describe(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	// The five percentiles interpolate between at most ten order
	// statistics; selectRanks establishes exactly those positions
	// instead of fully sorting the copy (same values, far fewer
	// comparisons — the sort dominated Summarize before).
	sorted := make([]float64, n)
	copy(sorted, xs)
	var rankBuf [10]int
	selectRanks(sorted, percentileRanks(rankBuf[:0], n, 5, 25, 50, 75, 95))

	mean := KahanMean(xs)
	var s2, c2, s3, c3, s4, c4 float64
	for _, x := range xs {
		d := x - mean
		d2 := d * d
		y := d2 - c2
		t := s2 + y
		c2 = (t - s2) - y
		s2 = t
		y = d2*d - c3
		t = s3 + y
		c3 = (t - s3) - y
		s3 = t
		y = d2*d2 - c4
		t = s4 + y
		c4 = (t - s4) - y
		s4 = t
	}
	out := Summary{
		Count: n,
		Mean:  mean,
		Min:   Min(xs),
		Max:   Max(xs),
		P5:    percentileSorted(sorted, 5),
		P25:   percentileSorted(sorted, 25),
		P50:   percentileSorted(sorted, 50),
		P75:   percentileSorted(sorted, 75),
		P95:   percentileSorted(sorted, 95),
	}
	fn := float64(n)
	if n >= 2 {
		out.StdDev = math.Sqrt(s2 / (fn - 1))
	}
	m2 := s2 / fn
	if n >= 3 && m2 != 0 {
		m3 := s3 / fn
		g1 := m3 / math.Pow(m2, 1.5)
		out.Skewness = math.Sqrt(fn*(fn-1)) / (fn - 2) * g1
	}
	if n >= 4 && m2 != 0 {
		m4 := s4 / fn
		g2 := m4/(m2*m2) - 3
		out.Kurtosis = ((fn - 1) / ((fn - 2) * (fn - 3))) * ((fn+1)*g2 + 6)
	}
	return out
}

// Vector flattens the Summary into the 11-feature layout used by the
// Taxonomist baseline: min, max, mean, std, skew, kurtosis, p5, p25,
// p50, p75, p95.
func (s Summary) Vector() []float64 {
	return []float64{
		s.Min, s.Max, s.Mean, s.StdDev, s.Skewness, s.Kurtosis,
		s.P5, s.P25, s.P50, s.P75, s.P95,
	}
}
