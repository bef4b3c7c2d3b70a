package stats

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestRoundingDepthTable reproduces Table 1 of the paper cell by cell.
func TestRoundingDepthTable(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{1358.0, 4, 1358.0},
		{1358.0, 3, 1360.0},
		{1358.0, 2, 1400.0},
		{1358.0, 1, 1000.0},
		{5.28, 3, 5.28},
		{5.28, 2, 5.3},
		{5.28, 1, 5.0},
		{0.038, 2, 0.038},
		{0.038, 1, 0.04},
	}
	for _, c := range cases {
		got := RoundDepth(c.x, c.depth)
		if got != c.want {
			t.Errorf("RoundDepth(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
}

func TestRoundDepthDeeperThanDigitsIsIdentity(t *testing.T) {
	// The "-" cells of Table 1: depth ≥ #significant digits leaves the
	// value unchanged.
	for _, x := range []float64{1358.0, 5.28, 0.038, 7, 6000, 123456} {
		d := SignificantDigits(x)
		for depth := d; depth <= d+5 && depth <= MaxRoundDepth; depth++ {
			if got := RoundDepth(x, depth); got != x {
				t.Errorf("RoundDepth(%v, %d) = %v, want identity", x, depth, got)
			}
		}
	}
}

func TestRoundDepthSpecialValues(t *testing.T) {
	if got := RoundDepth(0, 2); got != 0 {
		t.Errorf("RoundDepth(0,2) = %v, want 0", got)
	}
	if got := RoundDepth(math.Inf(1), 2); !math.IsInf(got, 1) {
		t.Errorf("RoundDepth(+Inf,2) = %v, want +Inf", got)
	}
	if got := RoundDepth(math.Inf(-1), 2); !math.IsInf(got, -1) {
		t.Errorf("RoundDepth(-Inf,2) = %v, want -Inf", got)
	}
	if got := RoundDepth(math.NaN(), 2); !math.IsNaN(got) {
		t.Errorf("RoundDepth(NaN,2) = %v, want NaN", got)
	}
}

func TestRoundDepthNegative(t *testing.T) {
	cases := []struct {
		x     float64
		depth int
		want  float64
	}{
		{-1358.0, 2, -1400.0},
		{-1358.0, 1, -1000.0},
		{-5.28, 2, -5.3},
		{-0.038, 1, -0.04},
	}
	for _, c := range cases {
		if got := RoundDepth(c.x, c.depth); got != c.want {
			t.Errorf("RoundDepth(%v, %d) = %v, want %v", c.x, c.depth, got, c.want)
		}
	}
}

func TestRoundDepthClamping(t *testing.T) {
	if got, want := RoundDepth(1358, 0), RoundDepth(1358, 1); got != want {
		t.Errorf("depth 0 should clamp to 1: got %v want %v", got, want)
	}
	if got, want := RoundDepth(1358, -3), RoundDepth(1358, 1); got != want {
		t.Errorf("depth -3 should clamp to 1: got %v want %v", got, want)
	}
	if got := RoundDepth(1358, 99); got != 1358 {
		t.Errorf("huge depth should be identity: got %v", got)
	}
}

// TestRoundDepthIdempotent checks the property that makes rounded means
// usable as dictionary keys: rounding an already-rounded value is a
// no-op.
func TestRoundDepthIdempotent(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		depth := int(d%6) + 1
		once := RoundDepth(x, depth)
		twice := RoundDepth(once, depth)
		return once == twice || (math.IsNaN(once) && math.IsNaN(twice))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthMonotone checks order preservation: x ≤ y implies
// round(x) ≤ round(y) at the same depth.
func TestRoundDepthMonotone(t *testing.T) {
	f := func(a, b float64, d uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		depth := int(d%6) + 1
		x, y := a, b
		if x > y {
			x, y = y, x
		}
		return RoundDepth(x, depth) <= RoundDepth(y, depth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthRelativeError checks that the relative rounding error is
// bounded by half a unit in the last kept significant digit.
func TestRoundDepthRelativeError(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || math.Abs(x) > 1e300 || math.Abs(x) < 1e-300 {
			return true
		}
		depth := int(d%6) + 1
		r := RoundDepth(x, depth)
		// Half a unit in the depth-th significant digit, with a small
		// epsilon for the decimal print/parse round trip. The leading
		// digit's exponent comes from the printer: log10 can land just
		// below an integer for values such as 1000.
		s := strconv.FormatFloat(x, 'e', -1, 64)
		mag, err := strconv.Atoi(s[strings.IndexByte(s, 'e')+1:])
		if err != nil {
			return false
		}
		bound := math.Pow(10, float64(mag-depth+1))/2 + math.Abs(x)*1e-12
		return math.Abs(r-x) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundDepthSignPreserved checks rounding never flips the sign.
func TestRoundDepthSignPreserved(t *testing.T) {
	f := func(x float64, d uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return true
		}
		depth := int(d%6) + 1
		r := RoundDepth(x, depth)
		return (x > 0) == (r > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSignificantDigits(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{1358.0, 4},
		{5.28, 3},
		{0.038, 2},
		{6000, 1},
		{6100, 2},
		{0, 0},
		{1, 1},
		{-270.5, 4},
		{math.NaN(), 0},
		{math.Inf(1), 0},
	}
	for _, c := range cases {
		if got := SignificantDigits(c.x); got != c.want {
			t.Errorf("SignificantDigits(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestFormatKeyRoundTrip checks that the string form of a key is a
// faithful stand-in for the float form.
func TestFormatKeyRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v, err := ParseKey(FormatKey(x))
		return err == nil && v == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRoundedKeysCollide checks the pruning behaviour fingerprints rely
// on: two nearby measurements must map to the same key once rounded.
func TestRoundedKeysCollide(t *testing.T) {
	a := RoundDepth(6012.7, 2)
	b := RoundDepth(5988.3, 2)
	if a != b {
		t.Fatalf("6012.7 and 5988.3 should collide at depth 2: %v vs %v", a, b)
	}
	if FormatKey(a) != FormatKey(b) {
		t.Fatalf("string keys should also collide: %q vs %q", FormatKey(a), FormatKey(b))
	}
	// ...and separate again at a finer depth.
	if RoundDepth(6012.7, 3) == RoundDepth(5988.3, 3) {
		t.Fatal("6012.7 and 5988.3 should separate at depth 3")
	}
}

// TestRoundedKeyOutsideNormalRange pins the two inputs on which the
// one-conversion kernel must fall back to the reference composition.
func TestRoundedKeyOutsideNormalRange(t *testing.T) {
	// The rounding carries past MaxFloat64: "-2e+308" does not parse,
	// so RoundDepth returns x and the key is x's shortest decimal.
	x := -1.5957498682802589e308
	if got := RoundDepth(x, 1); got != x {
		t.Errorf("RoundDepth(%v, 1) = %v, want x unrounded", x, got)
	}
	if got, want := string(AppendRoundedKey(nil, x, 1)), "-1.5957498682802589e+308"; got != want {
		t.Errorf("AppendRoundedKey(%v, 1) = %q, want %q", x, got, want)
	}
	// A subnormal result has fewer significant bits than 15 digits
	// need: the depth-6 decimal parses to a float64 whose shortest
	// decimal has five digits.
	x = 1.23467004895728e-320
	if got, want := string(AppendKey(nil, RoundDepth(x, 6))), "1.2347e-320"; got != want {
		t.Errorf("reference key of %v at depth 6 = %q, want %q", x, got, want)
	}
	if got, want := string(AppendRoundedKey(nil, x, 6)), "1.2347e-320"; got != want {
		t.Errorf("AppendRoundedKey(%v, 6) = %q, want %q", x, got, want)
	}
}

// roundedKeyChecker compares AppendRoundedKey with the reference
// AppendKey(RoundDepth(x, depth)) through reused buffers. The kernel
// appends after a prefix, which it must leave alone.
type roundedKeyChecker struct{ got, want []byte }

func (c *roundedKeyChecker) check(t *testing.T, x float64, depth int) {
	t.Helper()
	c.got = AppendRoundedKey(append(c.got[:0], "k|"...), x, depth)
	c.want = AppendKey(append(c.want[:0], "k|"...), RoundDepth(x, depth))
	if !bytes.Equal(c.got, c.want) {
		t.Fatalf("AppendRoundedKey(%v [%#016x], %d) = %q, want %q",
			x, math.Float64bits(x), depth, c.got[2:], c.want[2:])
	}
}

// TestAppendRoundedKeyMatchesReference checks the kernel against the
// reference on 10⁶ seeded values at depths -1 through 17. The values
// mix arbitrary bit patterns with the shapes that stress the layout:
// means of realistic magnitude, integer sums over 60-sample windows
// (decimal ties), short decimals nudged by one ulp either way, and
// values around FormatKey's switch between fixed and exponent form.
func TestAppendRoundedKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	edges := []float64{1e-5, 1e-4, 1e-3, 1, 1e5, 1e6, 1e7, 1e21, 1e-307, 1e308}
	var c roundedKeyChecker
	for i := 0; i < 1_000_000; i++ {
		var x float64
		switch i % 5 {
		case 0:
			x = math.Float64frombits(r.Uint64())
		case 1:
			x = (1 + 9*r.Float64()) * math.Pow(10, float64(r.IntN(41)-20))
		case 2:
			x = float64(r.IntN(1e9)) / 60
		case 3:
			x = float64(r.IntN(1e6)) * math.Pow(10, float64(r.IntN(31)-15))
			x = math.Nextafter(x, math.Inf(r.IntN(3)-1))
		case 4:
			x = edges[r.IntN(len(edges))] * (1 + (r.Float64()-0.5)*1e-3*math.Pow(10, -float64(r.IntN(14))))
		}
		if r.IntN(2) == 0 {
			x = -x
		}
		c.check(t, x, r.IntN(19)-1)
	}
}

// FuzzAppendRoundedKey checks the kernel against the reference for
// arbitrary float64 bits and depths -1 through 17.
func FuzzAppendRoundedKey(f *testing.F) {
	seeds := []struct {
		x     float64
		depth int
	}{
		// FormatKey's switches between fixed and exponent form.
		{9.9995e-5, 4}, {9.9995e-5, 5}, {1e-4, 3}, {999999.5, 6}, {999999.5, 7},
		{1e6, 2}, {1e21, 1},
		// Decimal carries into a new leading digit.
		{9.95, 2}, {9.96, 2}, {99999.95, 6}, {-0.000999996, 5},
		{math.Copysign(0, -1), 3}, {math.NaN(), 2}, {math.Inf(1), 2}, {math.Inf(-1), 2},
		{math.MaxFloat64, 15}, {-math.MaxFloat64, 1}, {math.SmallestNonzeroFloat64, 1},
		{-1.5957498682802589e308, 1}, {1.23467004895728e-320, 6},
		{1358, -1}, {1358, 17},
	}
	for _, s := range seeds {
		f.Add(math.Float64bits(s.x), s.depth)
	}
	f.Fuzz(func(t *testing.T, bits uint64, depth int) {
		var c roundedKeyChecker
		// Fold any depth into -1..17, leaving that range as it is.
		depth = ((depth+1)%19+19)%19 - 1
		c.check(t, math.Float64frombits(bits), depth)
	})
}
