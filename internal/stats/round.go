// Package stats provides the descriptive statistics and rounding
// primitives used throughout the EFD reproduction: significant-figure
// rounding ("rounding depth", Table 1 of the paper), batch and online
// summary statistics, and percentile estimation.
//
// All functions are pure and safe for concurrent use.
package stats

import (
	"math"
	"strconv"
	"unsafe"
)

// MaxRoundDepth is the largest rounding depth accepted by RoundDepth.
// Beyond ~15 significant decimal digits a float64 cannot represent the
// requested precision anyway, so deeper depths degenerate to identity.
const MaxRoundDepth = 15

// RoundDepth rounds x to depth significant figures, counting from the
// left-most non-zero digit, reproducing Table 1 of the paper:
//
//	RoundDepth(1358.0, 3) == 1360.0
//	RoundDepth(1358.0, 2) == 1400.0
//	RoundDepth(1358.0, 1) == 1000.0
//	RoundDepth(5.28, 2)   == 5.3
//	RoundDepth(0.038, 1)  == 0.04
//
// A depth greater than or equal to the number of significant digits in x
// leaves the value unchanged (the "-" cells of Table 1). Depth values
// below 1 are clamped to 1 and values above MaxRoundDepth are clamped to
// MaxRoundDepth. Zero, NaN and infinities are returned unchanged.
//
// The implementation formats x with exactly depth significant digits
// (strconv, correctly rounded, ties to even) and parses the decimal
// back, so two means which print identically always round to
// bit-identical float64 values. That bit-stability is what makes
// rounded means usable as exact dictionary keys.
//
// When the rounding carries past MaxFloat64 the decimal does not parse
// and x is returned unrounded: RoundDepth(-1.5957498682802589e308, 1)
// formats "-2e+308", which overflows, so the result is x itself.
//
// RoundDepth is the reference for AppendRoundedKey, which renders the
// same keys without the parse.
func RoundDepth(x float64, depth int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if depth < 1 {
		depth = 1
	}
	if depth > MaxRoundDepth {
		depth = MaxRoundDepth
	}
	// Format with exactly `depth` significant digits; strconv performs
	// correct round-half-to-even decimal rounding, then parse back. The
	// round trip runs through a stack buffer so the recognition hot
	// path stays allocation-free.
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], x, 'e', depth-1, 64)
	v, err := strconv.ParseFloat(bytesAsString(s), 64)
	if err != nil {
		// The rounding carried past MaxFloat64 (ErrRange): keep the
		// original value rather than return an infinity.
		return x
	}
	return v
}

// bytesAsString views b as a string without copying. The bytes must not
// be mutated while the string is in use; every caller here only passes
// the view to strconv.ParseFloat, which neither retains nor mutates it.
func bytesAsString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// SignificantDigits reports the number of significant decimal digits in
// the shortest decimal representation of x: the count of digits from the
// first non-zero digit to the last non-zero digit. Zero has zero
// significant digits by convention; NaN/Inf report zero.
func SignificantDigits(x float64) int {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	s := strconv.FormatFloat(math.Abs(x), 'e', -1, 64)
	// Form: d[.ddd]e±xx — count mantissa digits, trimming trailing zeros
	// (FormatFloat with -1 already emits the shortest form, so no
	// trailing zeros appear, but be defensive).
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 'e' || c == 'E' {
			break
		}
		if c >= '0' && c <= '9' {
			n++
		}
	}
	return n
}

// FormatKey renders a rounded measurement as its canonical shortest
// decimal string. Two float64 values compare equal under == exactly when
// FormatKey returns the same string for both, so the string form can be
// used interchangeably with the float form in dictionary keys and in
// serialized dictionaries.
func FormatKey(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// ParseKey parses a string produced by FormatKey back into a float64.
func ParseKey(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// AppendKey appends FormatKey(x) to dst and returns the extended slice.
// It is the allocation-free form of FormatKey for hot paths that build
// dictionary keys into reused buffers.
func AppendKey(dst []byte, x float64) []byte {
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// AppendRoundedKey appends FormatKey(RoundDepth(x, depth)) to dst — the
// canonical dictionary-key bytes of a raw mean at the given rounding
// depth — without any intermediate string allocation.
//
// It makes one decimal conversion: x formatted with depth significant
// digits, trailing zeros stripped, laid out as FormatKey lays out a
// shortest decimal. The bytes equal the reference composition because
// a decimal of at most 15 significant digits survives a float64 round
// trip: RoundDepth parses it to the float64 whose shortest decimal is
// that decimal again. The argument needs the parsed value to be a
// normal float64, so magnitudes outside [1e-307, 1e308] take the
// reference path: subnormal results, whose shortest decimal can be
// shorter (1.23467004895728e-320 keys as "1.2347e-320" at depth 6),
// and roundings that may carry past MaxFloat64. Zero, NaN and the
// infinities take it too.
func AppendRoundedKey(dst []byte, x float64, depth int) []byte {
	if a := math.Abs(x); !(a >= 1e-307 && a <= 1e308) {
		return AppendKey(dst, RoundDepth(x, depth))
	}
	depth = min(max(depth, 1), MaxRoundDepth)
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], x, 'e', depth-1, 64) // [-]d[.ddd]e±dd[d]
	e := len(s) - 4
	if s[e] != 'e' {
		e-- // a three-digit exponent
	}
	exp := 0
	for _, c := range s[e+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[e+1] == '-' {
		exp = -exp
	}
	// Strip the mantissa's trailing zeros, and its point if no digit
	// follows it; the leading digit of a non-zero x is not zero.
	m := e
	for s[m-1] == '0' {
		m--
	}
	if s[m-1] == '.' {
		m--
	}
	if exp < -4 || exp >= 6 {
		// FormatKey's exponent form is the mantissa and the exponent
		// as strconv wrote them.
		dst = append(dst, s[:m]...)
		return append(dst, s[e:]...)
	}
	if s[0] == '-' {
		dst = append(dst, '-')
		s, m = s[1:], m-1
	}
	// The digits are s[0] and frac, at decimal exponent exp.
	lead, frac := s[0], s[:0]
	if m > 1 {
		frac = s[2:m]
	}
	if exp < 0 {
		dst = append(dst, '0', '.')
		for i := exp + 1; i < 0; i++ {
			dst = append(dst, '0')
		}
		dst = append(dst, lead)
		return append(dst, frac...)
	}
	dst = append(dst, lead)
	if len(frac) <= exp {
		dst = append(dst, frac...)
		for i := len(frac); i < exp; i++ {
			dst = append(dst, '0')
		}
		return dst
	}
	dst = append(dst, frac[:exp]...)
	dst = append(dst, '.')
	return append(dst, frac[exp:]...)
}
