package tsdb

// Fault-injection tests: the same recovery paths crash_test.go reaches
// by hand-crafting on-disk states, reached here by injecting the
// failures through the vfs seam while the store is running — ENOSPC on
// the WAL, fsync EIO, torn writes, failed segment flushes, and crashes
// at exact operation boundaries. Every scenario asserts the store's
// contract: an error acknowledged to the caller never silently
// persists, an acknowledged operation never silently disappears, and a
// poisoned store recovers fully on reopen.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// openFault opens a store in dir through a fresh Fault filesystem.
func openFault(t *testing.T, dir string, seed int64) (*Store, *vfs.Fault) {
	t.Helper()
	fs := vfs.NewFault(vfs.OS{}, seed)
	st, err := OpenOptions(dir, Options{FS: fs})
	if err != nil {
		t.Fatalf("open through fault fs: %v", err)
	}
	return st, fs
}

// TestFaultWALPoisoning drives the store into each of its WAL
// failure paths and asserts the shared contract: the triggering call
// fails, every later mutation refuses, reads keep working, and a
// reopen recovers exactly the acknowledged state. ENOSPC demotes to
// read-only (transient, errors.Is ErrReadOnly/ErrDiskFull); EIO and
// torn writes poison (permanent).
func TestFaultWALPoisoning(t *testing.T) {
	cases := []struct {
		name string
		rule vfs.Rule
		// readonly expects the disk-full demotion instead of poisoning.
		readonly bool
		// trip performs the mutation expected to hit the fault.
		trip func(st *Store) error
	}{
		{
			name:     "enospc on append write",
			rule:     vfs.Rule{Op: vfs.OpWrite, Path: walName, Err: syscall.ENOSPC},
			readonly: true,
			trip: func(st *Store) error {
				// One run larger than the 64 KiB writer buffer forces the
				// buffered writer through the failing File.Write.
				n := 1 << 13
				offs := make([]time.Duration, n)
				vals := make([]float64, n)
				for i := range offs {
					offs[i] = time.Duration(i) * time.Second
				}
				return st.Append("acked", "cpu", 0, offs, vals)
			},
		},
		{
			name: "eio on commit fsync",
			rule: vfs.Rule{Op: vfs.OpSync, Path: walName, Err: syscall.EIO},
			trip: func(st *Store) error {
				if err := st.Append("acked", "cpu", 0, []time.Duration{99 * time.Second}, []float64{1}); err != nil {
					return err
				}
				return st.Commit()
			},
		},
		{
			name: "torn write on append",
			rule: vfs.Rule{Op: vfs.OpWrite, Path: walName, Torn: true, Err: syscall.EIO},
			trip: func(st *Store) error {
				n := 1 << 13
				offs := make([]time.Duration, n)
				vals := make([]float64, n)
				for i := range offs {
					offs[i] = time.Duration(i) * time.Second
				}
				return st.Append("acked", "cpu", 0, offs, vals)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, fs := openFault(t, dir, 7)
			// Acknowledged baseline, committed before the fault arms.
			if err := st.Register("acked", 1); err != nil {
				t.Fatal(err)
			}
			if err := st.Append("acked", "cpu", 0, []time.Duration{0, time.Second}, []float64{1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			fs.AddRule(tc.rule)

			err := tc.trip(st)
			if err == nil {
				t.Fatal("faulted mutation succeeded")
			}
			if tc.readonly {
				if st.Failed() != nil {
					t.Fatalf("ENOSPC poisoned the store: %v (want read-only demotion)", st.Failed())
				}
				if st.ReadOnly() == nil {
					t.Fatal("store not read-only after ENOSPC")
				}
				if !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrDiskFull) {
					t.Fatalf("ENOSPC trip error = %v, want ErrReadOnly and ErrDiskFull in the chain", err)
				}
				if err := st.Register("late", 1); !errors.Is(err, ErrReadOnly) {
					t.Errorf("post-demotion Register = %v, want ErrReadOnly", err)
				}
			} else {
				if st.Failed() == nil {
					t.Fatal("store not poisoned after WAL failure")
				}
				// Every later mutation refuses.
				if err := st.Register("late", 1); !errors.Is(err, st.Failed()) && err == nil {
					t.Errorf("post-poison Register = %v, want poisoned error", err)
				}
			}
			// Reads still serve either way.
			if got := len(st.Live()); got == 0 {
				t.Error("unhealthy store stopped serving reads")
			}
			st.Close() // unhealthy close: crash semantics, error expected

			re, err := OpenOptions(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after poisoning: %v", err)
			}
			defer re.Close()
			live := re.Live()
			if len(live) != 1 || live[0].ID != "acked" {
				t.Fatalf("recovered live jobs = %+v, want [acked]", live)
			}
			if live[0].Samples < 2 {
				t.Errorf("acknowledged samples lost: %d < 2", live[0].Samples)
			}
			// The un-acked trip payload may or may not have partially hit
			// the disk; what matters is replay never sees a ragged
			// series.
			for _, sr := range live[0].Series {
				if len(sr.Offsets) != len(sr.Values) {
					t.Fatalf("ragged recovered series %s[%d]", sr.Metric, sr.Node)
				}
			}
		})
	}
}

// TestFaultSegmentFlushFails injects an EIO into the segment temp
// write: Flush errors, the executions stay pending (WAL-durable), and
// a healed retry flushes them successfully with no duplicates.
func TestFaultSegmentFlushFails(t *testing.T) {
	dir := t.TempDir()
	st, fs := openFault(t, dir, 11)
	defer st.Close()
	if err := st.Register("job", 1); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "job", 50, 3)
	if err := st.Finish("job", "lbl"); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: segPrefix, Err: syscall.EIO})
	if err := st.Flush(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted flush = %v, want EIO", err)
	}
	if st.Failed() != nil {
		t.Fatal("failed segment flush must not poison the store (WAL still holds the data)")
	}
	stats := st.Stats()
	if stats.PendingJobs != 1 || stats.LastFlushError == "" {
		t.Fatalf("pending=%d lastFlushErr=%q after failed flush", stats.PendingJobs, stats.LastFlushError)
	}
	fs.Reset()
	if err := st.Flush(); err != nil {
		t.Fatalf("healed flush: %v", err)
	}
	execs := st.Executions()
	if len(execs) != 1 || !execs[0].Stored {
		t.Fatalf("executions after retry = %+v", execs)
	}
	if st.Stats().LastFlushError != "" {
		t.Error("lastFlushErr not cleared by successful flush")
	}
}

// TestFaultFlushENOSPCReadOnly: ENOSPC during a segment flush demotes
// the store to read-only instead of poisoning — reads (including the
// pending execution, durable via the WAL) keep serving, writes shed
// with ErrReadOnly, and a reopen after space frees resumes writes and
// flushes the batch with no duplicates.
func TestFaultFlushENOSPCReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, fs := openFault(t, dir, 17)
	if err := st.Register("job", 1); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "job", 50, 3)
	if err := st.Finish("job", "lbl"); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Path: segPrefix, Err: syscall.ENOSPC})
	if err := st.Flush(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("faulted flush = %v, want ErrDiskFull", err)
	}
	if st.Failed() != nil {
		t.Fatalf("flush ENOSPC poisoned the store: %v", st.Failed())
	}
	if st.ReadOnly() == nil {
		t.Fatal("flush ENOSPC did not demote the store to read-only")
	}
	// Reads keep serving: the pending execution is visible.
	execs := st.Executions()
	if len(execs) != 1 || execs[0].Stored {
		t.Fatalf("read-only executions = %+v, want one pending", execs)
	}
	// Writes shed with the retryable sentinel.
	if err := st.Register("late", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Register = %v, want ErrReadOnly", err)
	}
	fs.Reset() // space frees
	st.Close() // read-only close: error expected, WAL holds the batch
	re, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after disk-full: %v", err)
	}
	defer re.Close()
	if re.ReadOnly() != nil {
		t.Fatalf("reopened store still read-only: %v", re.ReadOnly())
	}
	if err := re.Flush(); err != nil {
		t.Fatalf("flush after reopen: %v", err)
	}
	execs = re.Executions()
	if len(execs) != 1 || !execs[0].Stored || execs[0].ID != "job" {
		t.Fatalf("executions after resume = %+v, want job stored once", execs)
	}
}

// TestFaultDiskLowWatermark: with DiskLowBytes configured, a flush is
// refused with ErrDiskFull while free space sits below the watermark —
// without demoting the store (appends keep working) — and succeeds
// once space frees.
func TestFaultDiskLowWatermark(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewFault(vfs.OS{}, 19)
	st, err := OpenOptions(dir, Options{FS: fs, DiskLowBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("job", 1); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "job", 50, 3)
	if err := st.Finish("job", "lbl"); err != nil {
		t.Fatal(err)
	}
	fs.SetFree(1 << 10) // below the 1 MiB watermark
	if err := st.Flush(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("low-disk flush = %v, want ErrDiskFull", err)
	}
	if st.ReadOnly() != nil || st.Failed() != nil {
		t.Fatal("watermark refusal must not demote or poison the store")
	}
	// Appends still work: only segment flushes are gated proactively.
	if err := st.Register("more", 1); err != nil {
		t.Fatalf("append-side write during low disk: %v", err)
	}
	if st.Stats().LastFlushError == "" {
		t.Error("watermark refusal not surfaced in LastFlushError")
	}
	fs.SetFree(1 << 30)
	if err := st.Flush(); err != nil {
		t.Fatalf("flush after space freed: %v", err)
	}
	if execs := st.Executions(); len(execs) != 1 || !execs[0].Stored {
		t.Fatalf("executions after freed flush = %+v", execs)
	}
}

// TestFaultSlowSync asserts injected latency is delay, not damage: a
// slow fsync commits correctly.
func TestFaultSlowSync(t *testing.T) {
	dir := t.TempDir()
	st, fs := openFault(t, dir, 13)
	defer st.Close()
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Delay: 20 * time.Millisecond})
	if err := st.Register("slow", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("slow", "cpu", 0, []time.Duration{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("delay rule did not slow the commit")
	}
	if st.Failed() != nil {
		t.Errorf("slow I/O poisoned the store: %v", st.Failed())
	}
}

// TestFaultCrashAtEveryOp runs one deterministic script against the
// store, crashing the filesystem at every possible operation boundary
// in turn. Whatever the crash point, reopening the directory must
// succeed, recover a consistent state, and retain every operation
// acknowledged before the crash was scheduled.
func TestFaultCrashAtEveryOp(t *testing.T) {
	// First pass: count the operations the script performs.
	probeDir := t.TempDir()
	st, fs := openFault(t, probeDir, 1)
	script := func(st *Store) {
		// Errors ignored: post-crash calls fail by design.
		st.Register("a", 1)
		st.Append("a", "cpu", 0, []time.Duration{0, time.Second}, []float64{1, 2})
		st.Commit()
		st.Register("b", 2)
		st.Append("b", "mem", 1, []time.Duration{0}, []float64{3})
		st.Commit()
		st.Finish("a", "done")
		st.Flush()
		st.Drop("b")
	}
	script(st)
	st.Close()
	total := fs.Ops()

	for n := int64(1); n <= total; n++ {
		t.Run(fmt.Sprintf("crash-at-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			fs := vfs.NewFault(vfs.OS{}, 1)
			fs.CrashAt(n)
			st, err := OpenOptions(dir, Options{FS: fs})
			if err != nil {
				// Crash during open: nothing durable yet; the directory
				// must still open cleanly afterwards.
				if !errors.Is(err, vfs.ErrCrashed) {
					t.Fatalf("open = %v, want ErrCrashed", err)
				}
			} else {
				script(st)
				st.Close()
			}

			re, err := OpenOptions(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after crash at op %d: %v", n, err)
			}
			defer re.Close()
			// Consistency: no ragged series, sample counts add up.
			for _, j := range re.Live() {
				var sum int64
				for _, sr := range j.Series {
					if len(sr.Offsets) != len(sr.Values) {
						t.Fatalf("ragged series after crash at %d", n)
					}
					sum += int64(len(sr.Values))
				}
				if sum != j.Samples {
					t.Fatalf("sample accounting off after crash at %d: %d != %d", n, sum, j.Samples)
				}
			}
			// Durability floor: once the whole script ran without the
			// crash firing mid-script (crash point beyond the last
			// fsync), the final state must be exact.
			if !fs.Crashed() {
				execs := re.Executions()
				if len(execs) != 1 || execs[0].ID != "a" {
					t.Fatalf("uncrashed run: executions = %+v", execs)
				}
				if len(re.Live()) != 0 {
					t.Fatalf("uncrashed run: live = %+v", re.Live())
				}
			}
		})
	}
	if testing.Verbose() {
		t.Logf("script spans %d fs operations", total)
	}
}

// TestFaultLockConflict: a second open of a locked directory reports
// ErrLocked through the seam.
func TestFaultLockConflict(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.lock == nil {
		t.Skip("no directory locking on this platform")
	}
	if _, err := OpenOptions(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open = %v, want ErrLocked", err)
	}
}

// TestFaultQuarantineFiles: after a torn-tail recovery the quarantine
// file exists on disk where an operator (and efdd's startup scan) can
// find it.
func TestFaultQuarantineFiles(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 60)
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, int64(len(data))-5); err != nil {
		t.Fatal(err)
	}
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fi, err := os.Stat(filepath.Join(dir, walQuarantine))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("quarantine file empty")
	}
}
