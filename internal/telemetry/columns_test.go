package telemetry

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// gridSeries builds a 1 Hz series of n pseudo-random values.
func gridSeries(n int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	s := NewSeries("m", 0, n)
	for i := 0; i < n; i++ {
		s.Append(sec(i), 1e6*(1+0.1*rng.NormFloat64()))
	}
	return s
}

func TestImplicitGridMaterialization(t *testing.T) {
	s := NewSeries("m", 0, 4)
	s.Append(0, 1)
	s.Append(sec(1), 2)
	if s.offs != nil {
		t.Fatal("1 Hz appends should stay on the implicit grid")
	}
	// An off-grid append materializes the offset column without losing
	// the earlier samples.
	s.Append(sec(1)+500*time.Millisecond, 3)
	if s.offs == nil {
		t.Fatal("off-grid append should materialize offsets")
	}
	if s.OffsetAt(0) != 0 || s.OffsetAt(1) != sec(1) || s.OffsetAt(2) != sec(1)+500*time.Millisecond {
		t.Errorf("offsets after materialization: %v %v %v", s.OffsetAt(0), s.OffsetAt(1), s.OffsetAt(2))
	}
	if s.ValueAt(2) != 3 || s.Len() != 3 {
		t.Errorf("values after materialization: %v len %d", s.Values(), s.Len())
	}
}

func TestNewSeriesFromColumns(t *testing.T) {
	vals := []float64{10, 20, 30}
	// Grid offsets (explicit or nil) are compacted away.
	grid := []time.Duration{0, sec(1), sec(2)}
	s := NewSeriesFromColumns("m", 1, grid, append([]float64(nil), vals...))
	if s.offs != nil || s.Len() != 3 || s.OffsetAt(2) != sec(2) || !s.Sorted() {
		t.Errorf("grid adoption wrong: offs=%v len=%d", s.offs, s.Len())
	}
	s2 := NewSeriesFromColumns("m", 1, nil, append([]float64(nil), vals...))
	if s2.Len() != 3 || s2.OffsetAt(1) != sec(1) {
		t.Errorf("nil-offsets adoption wrong")
	}
	// Irregular offsets are copied, so a shared column survives a Sort
	// of one sibling.
	shared := []time.Duration{sec(2), sec(0), sec(1)}
	a := NewSeriesFromColumns("a", 0, shared, []float64{30, 10, 20})
	b := NewSeriesFromColumns("b", 0, shared, []float64{3, 1, 2})
	if a.Sorted() || b.Sorted() {
		t.Fatal("out-of-order columns should flag unsorted")
	}
	a.Sort()
	if shared[0] != sec(2) {
		t.Error("Sort of one series mutated the shared offsets column")
	}
	if b.OffsetAt(0) != sec(2) || b.ValueAt(0) != 3 {
		t.Error("sibling series corrupted by Sort")
	}
	if a.OffsetAt(0) != 0 || a.ValueAt(0) != 10 {
		t.Errorf("sorted series wrong: %+v", a.At(0))
	}
	// Mismatched column lengths are a programmer error.
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	NewSeriesFromColumns("m", 0, []time.Duration{0}, []float64{1, 2})
}

// randomRun draws a run of one of the shapes the store feeds AppendRun
// for a series that already holds n samples: empty, on the grid,
// leaving the grid partway, or out of order.
func randomRun(rng *rand.Rand, n int) ([]time.Duration, []float64) {
	size := rng.Intn(8)
	offs := make([]time.Duration, size)
	kind := rng.Intn(4)
	leave := rng.Intn(size + 1)
	for k := range offs {
		switch {
		case kind == 0:
			offs[k] = sec(n + k)
		case kind == 1 && k < leave:
			offs[k] = sec(n + k)
		case kind == 1:
			offs[k] = sec(n+k) + 300*time.Millisecond
		default:
			offs[k] = time.Duration(rng.Intn(2*(n+size)+1)) * 500 * time.Millisecond
		}
	}
	if rng.Intn(8) == 0 {
		offs = offs[:0]
	}
	vals := make([]float64, len(offs))
	for k := range vals {
		vals[k] = rng.NormFloat64()
	}
	return offs, vals
}

// offsetColumnMatchesGrid reports whether the offset column is nil
// exactly when every sample sits on the 1 Hz grid.
func offsetColumnMatchesGrid(s *Series) bool {
	grid := true
	for i := 0; i < s.Len(); i++ {
		grid = grid && s.OffsetAt(i) == time.Duration(i)*DefaultPeriod
	}
	return grid == (s.OffsetsView() == nil)
}

// TestAppendRunMatchesAppend pins AppendRun to a loop of Append: after
// every run both series hold the same offset column (nil included),
// the same values and the same Sorted().
func TestAppendRunMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		bulk, loop := NewSeries("m", 0, 0), NewSeries("m", 0, 0)
		for r := 0; r < 6; r++ {
			offs, vals := randomRun(rng, bulk.Len())
			bulk.AppendRun(offs, vals)
			for k := range offs {
				loop.Append(offs[k], vals[k])
			}
			if (bulk.OffsetsView() == nil) != (loop.OffsetsView() == nil) ||
				!slices.Equal(bulk.OffsetsView(), loop.OffsetsView()) ||
				!slices.Equal(bulk.ValuesView(), loop.ValuesView()) ||
				bulk.Sorted() != loop.Sorted() {
				t.Fatalf("trial %d run %d: AppendRun left offs=%v vals=%v sorted=%v, Append offs=%v vals=%v sorted=%v",
					trial, r, bulk.OffsetsView(), bulk.ValuesView(), bulk.Sorted(),
					loop.OffsetsView(), loop.ValuesView(), loop.Sorted())
			}
			if got, want := bulk.AppendOffsets(nil), loop.AppendOffsets(nil); !slices.Equal(got, want) || len(got) != loop.Len() {
				t.Fatalf("trial %d run %d: AppendOffsets %v, want %v", trial, r, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRun with ragged columns should panic")
		}
	}()
	NewSeries("m", 0, 0).AppendRun([]time.Duration{0}, nil)
}

// TestOffsetColumnNilIffGrid pins the invariant OffsetsView readers
// rely on: after any mix of NewSeriesFromColumns, Append, AppendRun
// and Sort, the offset column is nil exactly when every OffsetAt(i)
// is i·DefaultPeriod.
func TestOffsetColumnNilIffGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		var s *Series
		switch offs, vals := randomRun(rng, 0); rng.Intn(3) {
		case 0:
			s = NewSeriesFromColumns("m", 0, offs, vals)
		case 1:
			s = NewSeriesFromColumns("m", 0, nil, vals)
		default:
			s = NewSeries("m", 0, 0)
		}
		for op := 0; op < 8; op++ {
			if !offsetColumnMatchesGrid(s) {
				t.Fatalf("trial %d op %d: offs=%v for %d samples", trial, op, s.OffsetsView(), s.Len())
			}
			offs, vals := randomRun(rng, s.Len())
			switch rng.Intn(3) {
			case 0:
				for k := range offs {
					s.Append(offs[k], vals[k])
				}
			case 1:
				s.AppendRun(offs, vals)
			default:
				s.Sort()
			}
		}
	}
}

// TestSealedWindowMeanAllocFree pins the window scan at zero
// allocations — the property the recognition and summarize layers rely
// on when probing thousands of windows.
func TestSealedWindowMeanAllocFree(t *testing.T) {
	s := gridSeries(600, 4)
	w := Window{Start: sec(60), End: sec(540)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.WindowMean(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WindowMean = %v allocs/op, want 0", allocs)
	}
}
