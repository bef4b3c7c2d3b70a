package stats

import "math"

// This file holds the error-free addition and double-double (~106-bit)
// accumulator behind every window mean: WindowSum is the one place the
// rule "round the double-double sum once, then divide by n" lives, and
// both the stored series scan and the streaming recognizer use it.

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

// Value rounds the double-double to the nearest float64.
func (d DD) Value() float64 { return d.Hi + d.Lo }

// WindowSum accumulates the samples of one window: a double-double sum
// and a count. The zero value is an empty window.
//
// Two WindowSums fed the same values in the same order report the same
// bits. Integer values whose absolute sum stays below 2^53 add without
// rounding, so for them the mean is also independent of the order.
type WindowSum struct {
	sum DD
	n   int
}

// Add folds one sample into the window.
func (w *WindowSum) Add(x float64) {
	w.sum.Add(x)
	w.n++
}

// Mean rounds the sum once and divides it by the count. ok is false
// for an empty window and for a sum that is not finite (it overflowed,
// or a sample was NaN or infinite): such a window has no mean.
func (w *WindowSum) Mean() (mean float64, ok bool) {
	v := w.sum.Value()
	if w.n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v / float64(w.n), true
}
