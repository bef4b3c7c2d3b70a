package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := KahanMean(c.xs); got != c.want {
			t.Errorf("KahanMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestKahanMeanAccuracy(t *testing.T) {
	// Large baseline with tiny fluctuations: naive summation loses the
	// fluctuations; Kahan keeps them.
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = 1e12 + float64(i%7)*0.125
	}
	want := 1e12 + (0+0.125+0.25+0.375+0.5+0.625+0.75)/7
	got := KahanMean(xs)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("KahanMean = %.6f, want %.6f", got, want)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Unbiased sample variance of this classic set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance of empty should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if got := Min(xs); got != -9 {
		t.Errorf("Min = %v, want -9", got)
	}
	if got := Max(xs); got != 6 {
		t.Errorf("Max = %v, want 6", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-3, -2, -1, 0, 1, 2, 3}
	if got := Skewness(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness of symmetric sample = %v, want 0", got)
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Error("Skewness needs ≥3 samples")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 {
		t.Error("Skewness of constant sample should be 0")
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 2, 2, 3, 10} // long right tail
	if got := Skewness(right); got <= 0 {
		t.Errorf("right-tailed sample should have positive skew, got %v", got)
	}
	left := []float64{-10, -3, -2, -2, -1, -1, -1}
	if got := Skewness(left); got >= 0 {
		t.Errorf("left-tailed sample should have negative skew, got %v", got)
	}
}

func TestKurtosisGuards(t *testing.T) {
	if Kurtosis([]float64{1, 2, 3}) != 0 {
		t.Error("Kurtosis needs ≥4 samples")
	}
	if Kurtosis([]float64{2, 2, 2, 2, 2}) != 0 {
		t.Error("Kurtosis of constant sample should be 0")
	}
	// Heavy-tailed sample has higher kurtosis than a flat one.
	heavy := []float64{0, 0, 0, 0, 0, 0, 0, 0, -50, 50}
	flat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Kurtosis(heavy) <= Kurtosis(flat) {
		t.Errorf("heavy tails should raise kurtosis: heavy=%v flat=%v",
			Kurtosis(heavy), Kurtosis(flat))
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{75, 7.75},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("expected error on p < 0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("expected error on p > 100")
	}
	if _, err := Percentiles([]float64{1, 2}, []float64{50, 200}); err == nil {
		t.Error("expected error on out-of-range percentile in batch")
	}
	if _, err := Percentiles(nil, []float64{50}); err == nil {
		t.Error("expected error on empty input in batch")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3}
	orig := []float64{9, 1, 5, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("input mutated: %v", xs)
		}
	}
}

func TestPercentilesMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	ps := []float64{5, 25, 50, 75, 95}
	batch, err := Percentiles(xs, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		single, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("Percentiles[%v] = %v, Percentile = %v", p, batch[i], single)
		}
	}
}

func TestDescribeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*5
	}
	s := Describe(xs)
	if s.Count != 500 {
		t.Errorf("Count = %d", s.Count)
	}
	if !almostEqual(s.Mean, KahanMean(xs), 1e-9) {
		t.Error("Describe.Mean mismatch")
	}
	if s.Min > s.P5 || s.P5 > s.P25 || s.P25 > s.P50 || s.P50 > s.P75 ||
		s.P75 > s.P95 || s.P95 > s.Max {
		t.Errorf("percentile ordering violated: %+v", s)
	}
	if s.StdDev <= 0 {
		t.Error("StdDev should be positive for noisy sample")
	}
	zero := Describe(nil)
	if zero != (Summary{}) {
		t.Errorf("Describe(nil) = %+v, want zero", zero)
	}
}

func TestSummaryVector(t *testing.T) {
	s := Describe([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	v := s.Vector()
	if len(v) != 11 {
		t.Fatalf("vector length = %d, want 11", len(v))
	}
	if v[0] != s.Min || v[1] != s.Max || v[2] != s.Mean || v[3] != s.StdDev {
		t.Error("vector layout mismatch")
	}
}

// Property: mean lies within [min, max].
func TestMeanWithinBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := KahanMean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: shifting all samples by c shifts the mean by c and leaves the
// standard deviation unchanged.
func TestShiftInvariance(t *testing.T) {
	f := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 64)
		ys := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i] + c
		}
		return almostEqual(KahanMean(ys), KahanMean(xs)+c, 1e-6) &&
			almostEqual(StdDev(ys), StdDev(xs), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
