package tsdb

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/telemetry"
)

// flushOneExec builds a store containing one flushed execution of
// seriesCount grid series × n samples and returns it.
func flushOneExec(t testing.TB, dir string, seriesCount, n int) *Store {
	t.Helper()
	st, err := OpenOptions(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ns := telemetry.NewNodeSet()
	for si := 0; si < seriesCount; si++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(si*1000 + i)
		}
		ns.Put(telemetry.NewSeriesFromColumns("m", si, nil, vals))
	}
	storeExecution(t, st, "exec", "", ns)
	return st
}

// TestMmapReadZeroValueCopies pins the acceptance criterion directly:
// the value columns of a materialized stored execution alias the
// segment mapping itself — no copy of any value column is made.
func TestMmapReadZeroValueCopies(t *testing.T) {
	const n = 4096
	st := flushOneExec(t, t.TempDir(), 4, n)
	defer st.Close()
	if len(st.segs) != 1 {
		t.Fatalf("segments: %d, want 1", len(st.segs))
	}
	data := st.segs[0].m.Data
	base := uintptr(unsafe.Pointer(&data[0]))
	end := base + uintptr(len(data))
	ns, err := st.ExecutionSeries("exec")
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range ns.Nodes() {
		s := ns.Get(node, "m")
		vals := s.ValuesView()
		if len(vals) != n {
			t.Fatalf("series %d: %d values, want %d", node, len(vals), n)
		}
		p := uintptr(unsafe.Pointer(&vals[0]))
		if p < base || p >= end {
			t.Errorf("series %d value column was copied out of the mapping", node)
		}
		if p%8 != 0 {
			t.Errorf("series %d value column misaligned (%#x)", node, p)
		}
	}
}

// TestMmapMaterializeAllocsFlat pins that materializing a stored
// execution, the path ExecutionSeries takes, performs a constant number
// of allocations regardless of sample count — the structural cost
// (NodeSet, Series headers) only, never the columns.
func TestMmapMaterializeAllocsFlat(t *testing.T) {
	small := flushOneExec(t, t.TempDir(), 2, 64)
	defer small.Close()
	big := flushOneExec(t, t.TempDir(), 2, 65536)
	defer big.Close()
	measure := func(st *Store) float64 {
		g := st.segs[0]
		e := &g.footer.Execs[0]
		return testing.AllocsPerRun(50, func() {
			if ns := g.nodeSet(e); ns.NumSeries() != 2 {
				t.Fatal("bad materialization")
			}
		})
	}
	a, b := measure(small), measure(big)
	if a != b {
		t.Errorf("materialize allocs scale with samples: %v (64) vs %v (65536)", a, b)
	}
}

// TestWALAppendSteadyStateAllocs pins the ingest hot path: appending a
// run to a warmed store allocates only for the memtable's amortized
// column growth — the WAL encode path itself reuses its scratch.
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	st, err := OpenOptions(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("j", 1); err != nil {
		t.Fatal(err)
	}
	const run = 64
	offs := make([]time.Duration, run)
	vals := make([]float64, run)
	next := 0
	fill := func() {
		for i := range offs {
			offs[i] = time.Duration(next+i) * telemetry.DefaultPeriod
			vals[i] = float64(i)
		}
		next += run
	}
	// Warm: grow the memtable columns well past the measured appends.
	for i := 0; i < 2048; i++ {
		fill()
		if err := st.Append("j", "cpu", 0, offs, vals); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		if err := st.Append("j", "cpu", 0, offs, vals); err != nil {
			t.Fatal(err)
		}
	})
	// Column growth still reallocs occasionally across the measured
	// window; anything beyond ~1 alloc/op means a per-append heap path
	// crept in. The race detector makes the encoder pool's Get/Put
	// allocate, so the bound loosens under -race.
	limit := 1.0
	if raceEnabled {
		limit = 4
	}
	if allocs > limit {
		t.Errorf("Append allocates %v allocs/op warmed, want ≤ %v", allocs, limit)
	}
}
