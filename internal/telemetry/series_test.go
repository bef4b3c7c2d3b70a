package telemetry

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func mkSeries(t *testing.T, metric string, node int, values []float64) *Series {
	t.Helper()
	s := NewSeries(metric, node, len(values))
	for i, v := range values {
		s.Append(sec(i), v)
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := mkSeries(t, "m", 2, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Duration() != sec(2) {
		t.Errorf("Duration = %v", s.Duration())
	}
	vals := s.Values()
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
	empty := NewSeries("m", 0, 0)
	if empty.Duration() != 0 || empty.Len() != 0 {
		t.Error("empty series should report zero length and duration")
	}
}

func TestSeriesSort(t *testing.T) {
	s := NewSeries("m", 0, 3)
	s.Append(sec(2), 30)
	s.Append(sec(0), 10)
	s.Append(sec(1), 20)
	if s.Sorted() {
		t.Error("out-of-order appends should clear Sorted")
	}
	s.Sort()
	if !s.Sorted() {
		t.Error("Sort should restore Sorted")
	}
	if s.ValueAt(0) != 10 || s.ValueAt(2) != 30 {
		t.Errorf("sort order wrong: %v", s.Values())
	}
	// The sorted offsets land back on the 1 Hz grid, so the offset
	// column is dropped and accessors keep answering.
	if s.OffsetAt(1) != sec(1) || s.At(2) != (Sample{Offset: sec(2), Value: 30}) {
		t.Errorf("accessors after sort: OffsetAt(1)=%v At(2)=%+v", s.OffsetAt(1), s.At(2))
	}
}

// TestUnsortedSeriesWindowing covers the Append/WindowMean contract: the
// binary search used by WindowMean must not silently return
// wrong windows when samples arrived out of order — windowing fails
// with ErrUnsortedSeries until an explicit Sort restores order.
func TestUnsortedSeriesWindowing(t *testing.T) {
	ordered := NewSeries("m", 0, 0)
	shuffled := NewSeries("m", 0, 0)
	for i := 0; i < 180; i++ {
		ordered.Append(sec(i), float64(i))
	}
	// Deliver the same samples in a scrambled order.
	for _, i := range []int{1, 0} {
		for j := i; j < 180; j += 2 {
			shuffled.Append(sec(j), float64(j))
		}
	}
	if shuffled.Sorted() {
		t.Fatal("scrambled appends should flag the series unsorted")
	}
	w := Window{Start: sec(60), End: sec(120)}
	if _, err := shuffled.WindowMean(w); !errors.Is(err, ErrUnsortedSeries) {
		t.Fatalf("unsorted WindowMean err = %v, want ErrUnsortedSeries", err)
	}
	shuffled.Sort()
	want, err := ordered.WindowMean(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shuffled.WindowMean(w)
	if err != nil {
		t.Fatalf("sorted series WindowMean: %v", err)
	}
	if got != want {
		t.Errorf("WindowMean after Sort = %v, want %v", got, want)
	}
}

func TestWindowBasics(t *testing.T) {
	w := Window{Start: sec(60), End: sec(120)}
	if w.String() != "[60:120]" {
		t.Errorf("String = %q", w.String())
	}
	if !w.Valid() {
		t.Error("window validity wrong")
	}
	if !w.Contains(sec(60)) || w.Contains(sec(120)) || !w.Contains(sec(119)) {
		t.Error("half-open containment wrong")
	}
	if (Window{Start: sec(5), End: sec(5)}).Valid() {
		t.Error("empty window should be invalid")
	}
	if (Window{Start: -sec(1), End: sec(5)}).Valid() {
		t.Error("negative start should be invalid")
	}
}

func TestParseWindow(t *testing.T) {
	w, err := ParseWindow("[60:120]")
	if err != nil || w != PaperWindow {
		t.Fatalf("ParseWindow: %v %v", w, err)
	}
	for _, bad := range []string{"60:120", "[x:y]", "[120:60]", "[5:5]", ""} {
		if _, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) should fail", bad)
		}
	}
}

func TestParseWindowRoundTrip(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := int(a), int(b)
		if lo >= hi {
			lo, hi = hi, lo+1
		}
		w := Window{Start: sec(lo), End: sec(hi)}
		got, err := ParseWindow(w.String())
		return err == nil && got == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSliceShortSeries(t *testing.T) {
	s := mkSeries(t, "m", 0, []float64{1, 2, 3}) // covers [0,2]
	_, err := s.WindowMean(Window{Start: sec(60), End: sec(120)})
	if !errors.Is(err, ErrShortSeries) {
		t.Fatalf("want ErrShortSeries, got %v", err)
	}
	if _, err := s.WindowMean(Window{Start: sec(5), End: sec(1)}); err == nil {
		t.Fatal("invalid window should error")
	}
}

func TestWindowMeanMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = 100 + rng.NormFloat64()
	}
	s := mkSeries(t, "m", 0, vals)
	w := Window{Start: sec(60), End: sec(120)}
	got, err := s.WindowMean(w)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 60; i < 120; i++ {
		want += vals[i]
	}
	want /= 60
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("WindowMean = %v, want %v", got, want)
	}

	// Jittered (off-grid) offsets materialize the offset column; the
	// binary-searched bounds must keep the window half-open.
	jit := NewSeries("m", 0, 0)
	sum, n := 0, 0
	for i := 0; i < 200; i++ {
		off := sec(i) + time.Duration(rng.Intn(1000))*time.Millisecond
		jit.Append(off, float64(i))
		if w.Contains(off) {
			sum, n = sum+i, n+1
		}
	}
	if got, err := jit.WindowMean(w); err != nil || got != float64(sum)/float64(n) {
		t.Errorf("jittered WindowMean = %v, %v; want %v", got, err, float64(sum)/float64(n))
	}
}

func TestWindowMeanPartialCoverage(t *testing.T) {
	// Series ends at 90s: the [60:120] window is partially covered;
	// mean should still be computed over the available samples.
	vals := make([]float64, 91)
	for i := range vals {
		vals[i] = 7
	}
	s := mkSeries(t, "m", 0, vals)
	got, err := s.WindowMean(PaperWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("WindowMean = %v", got)
	}
	// A later append is in the next answer: 31 sevens and one 14.
	s.AppendRun([]time.Duration{sec(91)}, []float64{14})
	if got, err := s.WindowMean(PaperWindow); err != nil || got != 231.0/32 {
		t.Errorf("WindowMean after AppendRun = %v, %v; want %v", got, err, 231.0/32)
	}
}

// TestWindowMeanNonFiniteSum pins that a window whose sum overflows has
// no mean: 60 finite samples of 1.5e307 sum past MaxFloat64, and their
// mean must not come back as NaN.
func TestWindowMeanNonFiniteSum(t *testing.T) {
	vals := make([]float64, 180)
	for i := range vals {
		vals[i] = 1.5e307
	}
	s := mkSeries(t, "m", 0, vals)
	if got, err := s.WindowMean(PaperWindow); !errors.Is(err, ErrNonFiniteMean) {
		t.Errorf("WindowMean = %v, %v; want ErrNonFiniteMean", got, err)
	}
	// One sample of the same size is a mean.
	if got, err := s.WindowMean(Window{Start: sec(60), End: sec(61)}); err != nil || got != 1.5e307 {
		t.Errorf("one-sample window: %v, %v", got, err)
	}
}

func TestNodeSet(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "b", 0, []float64{1, 2}))
	ns.Put(mkSeries(t, "a", 1, []float64{1}))
	ns.Put(mkSeries(t, "b", 1, []float64{1}))
	if got := ns.Nodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Nodes = %v", got)
	}
	if got := ns.Metrics(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Metrics = %v", got)
	}
	if ns.NumSeries() != 4 {
		t.Errorf("NumSeries = %d", ns.NumSeries())
	}
	if ns.Duration() != sec(1) {
		t.Errorf("Duration = %v", ns.Duration())
	}
	if ns.Get(0, "a") == nil || ns.Get(2, "a") != nil || ns.Get(0, "c") != nil {
		t.Error("Get lookup wrong")
	}
}

func TestNodeSetPutReplaces(t *testing.T) {
	ns := NewNodeSet()
	ns.Put(mkSeries(t, "a", 0, []float64{1}))
	ns.Put(mkSeries(t, "a", 0, []float64{5, 6}))
	if got := ns.Get(0, "a").Len(); got != 2 {
		t.Errorf("replacement series length = %d", got)
	}
	if ns.NumSeries() != 1 {
		t.Errorf("NumSeries = %d after replace", ns.NumSeries())
	}
}
