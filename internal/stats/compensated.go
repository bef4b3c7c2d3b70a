package stats

// This file holds the error-free addition and double-double (~106-bit)
// accumulator behind the telemetry layer's sealed prefix sums: Seal
// folds every value into a DD, and WindowMean subtracts two prefixes
// and rounds the window sum once.

// TwoSum returns s = fl(a+b) and the exact rounding error e, so that
// a + b == s + e exactly (Knuth's branch-free error-free addition).
func TwoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	e = (a - s + bv) + (b - bv)
	return s, e
}

// DD is an unevaluated double-double sum Hi + Lo carrying roughly 106
// bits of significand. The zero value is an accumulator at zero.
type DD struct {
	Hi, Lo float64
}

// Add folds a float64 into the accumulator.
func (d *DD) Add(x float64) {
	s, e := TwoSum(d.Hi, x)
	e += d.Lo
	d.Hi, d.Lo = TwoSum(s, e)
}

// Sub returns d - o.
func (d DD) Sub(o DD) DD {
	s, e := TwoSum(d.Hi, -o.Hi)
	e += d.Lo - o.Lo
	s, e = TwoSum(s, e)
	return DD{Hi: s, Lo: e}
}

// Value rounds the double-double to the nearest float64.
func (d DD) Value() float64 { return d.Hi + d.Lo }
