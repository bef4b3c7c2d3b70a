package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTwoSumExact(t *testing.T) {
	cases := [][2]float64{
		{1e16, 1}, {1, 1e-30}, {-1e308, 1e308}, {3.14, 2.71}, {0, 0},
	}
	for _, c := range cases {
		s, e := TwoSum(c[0], c[1])
		if s != c[0]+c[1] {
			t.Errorf("TwoSum(%g,%g) s = %g, want fl(a+b) = %g", c[0], c[1], s, c[0]+c[1])
		}
		// For these magnitudes the error term is exactly recoverable:
		// a+b == s+e must hold in extended evaluation. Verify with the
		// classic 1e16+1 case where the error is exactly 1.
		_ = e
	}
	s, e := TwoSum(1e16, 1)
	if s != 1e16 || e != 1 {
		t.Errorf("TwoSum(1e16, 1) = (%g, %g), want (1e16, 1)", s, e)
	}
}

func TestDDAccumulatorRecoversLostBits(t *testing.T) {
	// Summing 1e16 and 10_000 copies of 1.0 naively loses every unit
	// increment (1 < ulp(1e16) = 2); the DD accumulator keeps them.
	var d DD
	d.Add(1e16)
	for i := 0; i < 10_000; i++ {
		d.Add(1)
	}
	d.Add(-1e16)
	if got := d.Value(); got != 10_000 {
		t.Errorf("DD sum = %v, want 10000", got)
	}
}

// TestMomentsLargeBaseline is the numerical-stability check for the
// slice statistics: values ~1e9 apart from zero with unit-scale
// structure. A naive Σx²−n·mean² at float64 loses all ~17 digits; the
// compensated slice statistics must recover the exact moments of the
// shifted data.
func TestMomentsLargeBaseline(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	shift := 1e9
	shifted := make([]float64, len(base))
	for i, x := range base {
		shifted[i] = x + shift
	}
	// Shifting by a constant leaves central moments untouched.
	wantVar := Variance(base)
	wantSkew := Skewness(base)
	wantKurt := Kurtosis(base)

	if got := Variance(shifted); relErr(got, wantVar) > 1e-9 {
		t.Errorf("Variance(x+1e9) = %v, want %v", got, wantVar)
	}
	if got := Skewness(shifted); math.Abs(got-wantSkew) > 1e-6 {
		t.Errorf("Skewness(x+1e9) = %v, want %v", got, wantSkew)
	}
	if got := Kurtosis(shifted); math.Abs(got-wantKurt) > 1e-6 {
		t.Errorf("Kurtosis(x+1e9) = %v, want %v", got, wantKurt)
	}
}

// TestDescribeMatchesStandaloneBitwise pins the fused Describe to the
// standalone statistics bit for bit: the fusion removes passes, not
// precision, and serialized datasets depend on the exact bytes.
func TestDescribeMatchesStandaloneBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 3, 4, 5, 60, 175, 600} {
		for _, scale := range []float64{1e-4, 1, 1e9} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = scale * (1 + 0.2*rng.NormFloat64())
			}
			s := Describe(xs)
			ps, _ := Percentiles(xs, []float64{5, 25, 50, 75, 95})
			want := Summary{
				Count: n, Mean: KahanMean(xs), StdDev: StdDev(xs),
				Min: Min(xs), Max: Max(xs),
				Skewness: Skewness(xs), Kurtosis: Kurtosis(xs),
				P5: ps[0], P25: ps[1], P50: ps[2], P75: ps[3], P95: ps[4],
			}
			if s != want {
				t.Errorf("n=%d scale=%g: Describe = %+v, standalone = %+v", n, scale, s, want)
			}
		}
	}
	// Constant input: zero variance guards.
	s := Describe([]float64{5, 5, 5, 5})
	if s.StdDev != 0 || s.Skewness != 0 || s.Kurtosis != 0 {
		t.Errorf("constant Describe = %+v", s)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
