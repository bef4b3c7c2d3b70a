package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 50 + rng.NormFloat64()*7
	}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.Count() != len(xs) {
		t.Fatalf("Count = %d", o.Count())
	}
	if !almostEqual(o.Mean(), KahanMean(xs), 1e-9) {
		t.Errorf("Mean: online %v batch %v", o.Mean(), KahanMean(xs))
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Count() != 0 || o.Mean() != 0 {
		t.Error("zero-value Online should report zeros")
	}
	o.Add(42)
	if o.Mean() != 42 || o.Count() != 1 {
		t.Errorf("single observation: %+v", o)
	}
}

func TestOnlineNumericalStability(t *testing.T) {
	// Welford should handle a large offset without catastrophic
	// cancellation.
	var o Online
	for i := 0; i < 10000; i++ {
		o.Add(1e9 + float64(i%3)) // values 1e9, 1e9+1, 1e9+2
	}
	if math.Abs(o.Mean()-(1e9+1)) > 1e-3 {
		t.Errorf("Mean = %v", o.Mean())
	}
}
