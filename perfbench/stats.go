package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// latencies collects per-call wall times of one operation kind.
type latencies []time.Duration

// quantileMS returns the nearest-rank q-quantile in milliseconds, or 0
// when nothing was recorded.
func (l latencies) quantileMS(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / float64(time.Millisecond)
}

// tailQuantile is the highest percentile up to p99 that still has at
// least ten samples beyond it, so a short run never reports a tail
// resting on one or two outliers.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.99
	}
	return max(0.5, min(0.99, 1-10/float64(n)))
}

// medianFloat returns the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, answering 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reservoirSize bounds the wall times kept per one-second window: a p99
// with forty samples beyond it, in a footprint that does not grow with
// throughput, so heap_mb measures the service and not the benchmark.
const reservoirSize = 4096

// recorder keeps the primary call's wall times per one-second window
// of the closed loop, as a seeded uniform reservoir sample of each
// window, plus the exact count and sum. The callers share it.
type recorder struct {
	mu      sync.Mutex
	start   time.Time
	rng     *rand.Rand
	windows []window
	n       int64
	sum     time.Duration
}

// window is one second of the closed loop.
type window struct {
	n   int64     // calls completed in the window
	lat latencies // reservoir sample of their wall times
}

func newRecorder(start time.Time, seed int64) *recorder {
	return &recorder{start: start, rng: rand.New(rand.NewSource(seed))}
}

// add records a call that took d and completed at end.
func (r *recorder) add(end time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := int(end.Sub(r.start) / time.Second)
	for len(r.windows) <= k {
		r.windows = append(r.windows, window{})
	}
	w := &r.windows[k]
	w.n++
	r.n++
	r.sum += d
	if len(w.lat) < reservoirSize {
		w.lat = append(w.lat, d)
	} else if j := r.rng.Int63n(w.n); j < reservoirSize {
		w.lat[j] = d
	}
}

// all returns every kept wall time: all of them while no window
// overflowed its reservoir (learn), a sample otherwise.
func (r *recorder) all() latencies {
	var out latencies
	for _, w := range r.windows {
		out = append(out, w.lat...)
	}
	return out
}

// meanMS is the exact mean wall time in milliseconds.
func (r *recorder) meanMS() float64 {
	return ratio(float64(r.sum)/float64(time.Millisecond), float64(r.n))
}
