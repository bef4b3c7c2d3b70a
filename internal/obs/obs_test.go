package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "a counter")
	c.Add(2)
	c.Add(1)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	level := 1.5
	r.GaugeFunc("g", "", "a gauge", func() float64 { return level })
	level -= 0.5
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 1\n") {
		t.Fatalf("gauge exposition lacks the callback's current value 1:\n%s", b.String())
	}
	// Idempotent re-registration returns the same instrument.
	if r.Counter("c_total", "", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Nil instruments are silent no-ops.
	var nc *Counter
	nc.Add(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 5.555 {
		t.Fatalf("sum = %v, want 5.555", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as gauge after counter did not panic")
		}
	}()
	r.GaugeFunc("m", "", "", func() float64 { return 0 })
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestObserveAllocFree pins the instrument fast paths at zero
// allocations — the contract that lets the ingest hot path carry
// instrumentation.
func TestObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "")
	h := r.Histogram("h_seconds", "", "", ExpBuckets(1e-6, 4, 12))
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0001) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestTracerDeterministicAndUnique(t *testing.T) {
	a, b := NewTracer(42), NewTracer(42)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		ida, idb := a.NextID(), b.NextID()
		if ida != idb {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, ida, idb)
		}
		if len(ida) != 16 {
			t.Fatalf("trace ID %q not 16 hex digits", ida)
		}
		if seen[ida] {
			t.Fatalf("duplicate trace ID %s at %d", ida, i)
		}
		seen[ida] = true
	}
	if NewTracer(1).NextID() == NewTracer(2).NextID() {
		t.Fatal("different seeds produced the same first ID")
	}
}

func TestSpanContext(t *testing.T) {
	s := NewSpan("abc")
	s.RecordStage("decode", 2*time.Millisecond)
	s.RecordStage("engine", 3*time.Millisecond)
	ctx := ContextWithSpan(context.Background(), s)
	got := SpanFrom(ctx)
	if got != s {
		t.Fatal("SpanFrom did not return the attached span")
	}
	st := got.Stages()
	if len(st) != 2 || st[0].Name != "decode" || st[1].Name != "engine" {
		t.Fatalf("stages = %+v", st)
	}
	if st[0].DurationMS != 2 {
		t.Fatalf("decode stage = %v ms, want 2", st[0].DurationMS)
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom on a bare context should be nil")
	}
	// nil-span methods are no-ops.
	var ns *Span
	ns.RecordStage("x", time.Second)
	if ns.Stages() != nil {
		t.Fatal("nil span has stages")
	}
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := NewSlowRing(3)
	for _, ms := range []float64{5, 1, 9, 3, 7} {
		r.Record(SlowRequest{Route: "/v1/samples", DurationMS: ms})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	want := []float64{9, 7, 5}
	for i, e := range snap {
		if e.DurationMS != want[i] {
			t.Fatalf("snapshot[%d] = %v ms, want %v", i, e.DurationMS, want[i])
		}
	}
}
