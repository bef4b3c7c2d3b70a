// Package obs is the repo's stdlib-only observability kit: an
// alloc-free metrics registry exposed in Prometheus text format 0.0.4
// (expose.go), seeded request-trace IDs with a per-request span API
// and a slowest-requests ring (trace.go), all designed so the ingest
// hot path can be instrumented without allocating.
//
// The instrument fast paths — Counter.Add and Histogram.Observe — are
// single atomic operations on pre-registered
// series and are safe on nil receivers (a nil instrument is a no-op),
// so optional instrumentation needs no call-site branches. Series are
// registered up front with a pre-rendered label string; nothing on
// the observation path formats, hashes, or allocates.
//
// CounterFunc/GaugeFunc register callback-backed series over counters
// and levels a subsystem already maintains (the engine's atomic.Int64
// totals, its live-job count), so existing hot paths gain exposition
// without a second increment. Gauges exist only in that form.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; Add is a single atomic add and a no-op on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//efd:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper bounds (Prometheus `le` semantics) chosen at registration;
// Observe is a linear bucket scan plus three atomics — zero
// allocations — and a no-op on a nil receiver.
type Histogram struct {
	upper  []float64      // ascending upper bounds, +Inf implicit
	counts []atomic.Int64 // len(upper)+1; the last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
//
//efd:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponentially spaced bucket bounds: start,
// start*factor, start*factor², … — the shape latency and size
// distributions want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric kinds, for exposition and mismatch detection.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels string // pre-rendered `k="v",…` payload, "" for none
	c      *Counter
	h      *Histogram
	cf     func() int64
	gf     func() float64
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds metric families and renders them as Prometheus text.
// Registration locks; the returned instruments are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register resolves (name, labels) to its series, creating family and
// series as needed. Kind mismatches and duplicate registrations of
// callback-backed series are programmer errors and panic.
func (r *Registry) register(name, labels, help string, k kind) (*series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k}
		r.fams[name] = fam
	} else if fam.kind != k {
		panic(fmt.Sprintf("obs: %s registered as %s and %s", name, fam.kind, k))
	}
	for _, s := range fam.series {
		if s.labels == labels {
			return s, false
		}
	}
	s := &series{labels: labels}
	fam.series = append(fam.series, s)
	sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labels < fam.series[j].labels })
	return s, true
}

// Counter registers (or returns the existing) counter series. labels
// is a pre-rendered `k="v",…` payload ("" for an unlabeled series).
func (r *Registry) Counter(name, labels, help string) *Counter {
	s, fresh := r.register(name, labels, help, kindCounter)
	if fresh {
		s.c = new(Counter)
	} else if s.c == nil {
		panic(fmt.Sprintf("obs: %s{%s} already registered as a callback counter", name, labels))
	}
	return s.c
}

// CounterFunc registers a callback-backed counter series — exposition
// reads fn, so a subsystem's existing atomic total becomes scrapable
// without double counting.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	s, fresh := r.register(name, labels, help, kindCounter)
	if !fresh {
		panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", name, labels))
	}
	s.cf = fn
}

// GaugeFunc registers a callback-backed gauge series.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	s, fresh := r.register(name, labels, help, kindGauge)
	if !fresh {
		panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", name, labels))
	}
	s.gf = fn
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, labels, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s buckets not strictly ascending", name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: %s needs at least one bucket", name))
	}
	s, fresh := r.register(name, labels, help, kindHistogram)
	if fresh {
		s.h = &Histogram{
			upper:  append([]float64(nil), buckets...),
			counts: make([]atomic.Int64, len(buckets)+1),
		}
	}
	return s.h
}
