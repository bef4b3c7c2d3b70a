package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// testInstruments builds a full Instruments set over a fresh registry.
func testInstruments() (Instruments, *obs.Registry) {
	reg := obs.NewRegistry()
	return Instruments{
		AppendSeconds: reg.Histogram("efd_tsdb_wal_append_seconds", "", "", obs.ExpBuckets(1e-7, 4, 12)),
		CommitSeconds: reg.Histogram("efd_tsdb_commit_seconds", "", "", obs.ExpBuckets(1e-6, 4, 12)),
		CommitRecords: reg.Histogram("efd_tsdb_commit_batch_records", "", "", obs.ExpBuckets(1, 4, 10)),
		FlushSeconds:  reg.Histogram("efd_tsdb_flush_seconds", "", "", obs.ExpBuckets(1e-4, 4, 10)),
		FlushBytes:    reg.Histogram("efd_tsdb_flush_bytes", "", "", obs.ExpBuckets(4096, 4, 10)),
		MmapReads:     reg.Counter("efd_tsdb_mmap_reads_total", "", ""),
	}, reg
}

// TestAppendInstrumentedAllocFree pins the instrumented WAL append at
// zero allocations warmed — the tentpole's hot-path contract: wiring
// the observability plane in must not cost the ingest path a single
// allocation.
func TestAppendInstrumentedAllocFree(t *testing.T) {
	inst, _ := testInstruments()
	st, err := OpenOptions(t.TempDir(), Options{NoSync: true, Inst: inst})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("job", 1); err != nil {
		t.Fatal(err)
	}
	const n = 64
	offs := make([]time.Duration, n)
	vals := make([]float64, n)
	for i := range offs {
		offs[i] = time.Duration(i) * time.Second
		vals[i] = float64(i)
	}
	// Warm the encoder pool and the memtable series before pinning.
	for i := 0; i < 16; i++ {
		if err := st.Append("job", "flops", 0, offs, vals); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Append("job", "flops", 0, offs, vals); err != nil {
			t.Fatal(err)
		}
	})
	// The race detector makes the encoder pool's Get/Put allocate (same
	// loosening as TestAppendAllocFree); the real pin is the plain run.
	limit := 0.0
	if raceEnabled {
		limit = 4
	}
	if allocs > limit {
		t.Errorf("instrumented Append allocates %v/op, want ≤ %v", allocs, limit)
	}
	if inst.AppendSeconds.Count() == 0 {
		t.Error("AppendSeconds recorded nothing")
	}

	// The job-level append the engine makes: one tick of 4 metrics on
	// 4 nodes, all in one call.
	if err := st.Register("wide", 4); err != nil {
		t.Fatal(err)
	}
	metrics := []string{"flops", "mem", "net", "io"}
	tick := []time.Duration{0}
	one := []float64{1}
	run := func(i int) (string, int, []time.Duration, []float64) { return metrics[i%4], i / 4, tick, one }
	for i := 0; i < 64; i++ {
		tick[0] = time.Duration(i) * time.Second
		if err := st.AppendRuns("wide", 16, run); err != nil {
			t.Fatal(err)
		}
	}
	next := 64
	allocs = testing.AllocsPerRun(200, func() {
		tick[0] = time.Duration(next) * time.Second
		next++
		if err := st.AppendRuns("wide", 16, run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("instrumented AppendRuns allocates %v/op, want ≤ %v", allocs, limit)
	}
}

// TestInstrumentsObserveStoreOps drives the store through its whole
// lifecycle and checks every instrument fired.
func TestInstrumentsObserveStoreOps(t *testing.T) {
	inst, _ := testInstruments()
	st, err := OpenOptions(t.TempDir(), Options{NoSync: true, Inst: inst})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("job", 1); err != nil {
		t.Fatal(err)
	}
	offs := []time.Duration{0, time.Second}
	vals := []float64{1, 2}
	if err := st.Append("job", "m", 0, offs, vals); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish("job", "app_x"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecutionSeries("job"); err != nil {
		t.Fatal(err)
	}
	if inst.AppendSeconds.Count() == 0 {
		t.Error("AppendSeconds never observed")
	}
	if inst.CommitSeconds.Count() == 0 {
		t.Error("CommitSeconds never observed")
	}
	if inst.CommitRecords.Count() == 0 {
		t.Error("CommitRecords never observed")
	}
	if inst.FlushSeconds.Count() == 0 || inst.FlushBytes.Count() == 0 {
		t.Error("flush instruments never observed")
	}
	if inst.FlushBytes.Sum() <= 0 {
		t.Error("FlushBytes sum is zero: segment size not recorded")
	}
	if inst.MmapReads.Value() == 0 {
		t.Error("MmapReads never counted")
	}
}
