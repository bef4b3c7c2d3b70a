package tsdb

// Crash-recovery tests: simulated kills mid-WAL-append and
// mid-segment-flush. The writer cannot literally be killed inside a
// unit test, so the tests reproduce the on-disk states such kills
// leave behind — a WAL whose last frame is half-written, a frame whose
// payload rotted, a segment missing its tail, a WAL that never got
// compacted after a successful flush — and assert recovery restores
// exactly the acknowledged samples while quarantining, not skipping,
// the torn bytes.

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildStore creates a store with one committed live job of n samples
// and closes it, returning the recorded live state for comparison.
func buildStore(t *testing.T, dir string, n int) LiveJob {
	t.Helper()
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Register("victim", 2); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "victim", n, 11)
	live := st.Live()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return live[0]
}

func sameLiveJob(t *testing.T, got, want LiveJob) {
	t.Helper()
	if got.ID != want.ID || got.Samples != want.Samples || len(got.Series) != len(want.Series) {
		t.Fatalf("recovered job %q: %d samples / %d series, want %d / %d",
			got.ID, got.Samples, len(got.Series), want.Samples, len(want.Series))
	}
	for i := range want.Series {
		a, b := want.Series[i], got.Series[i]
		if a.Metric != b.Metric || a.Node != b.Node || len(a.Values) != len(b.Values) {
			t.Fatalf("series %d: %s[%d]×%d, want %s[%d]×%d",
				i, b.Metric, b.Node, len(b.Values), a.Metric, a.Node, len(a.Values))
		}
		for k := range a.Values {
			if a.Values[k] != b.Values[k] || a.Offsets[k] != b.Offsets[k] {
				t.Fatalf("series %s[%d] sample %d differs after recovery", a.Metric, a.Node, k)
			}
		}
	}
}

// TestCrashMidWALAppendTruncatedTail kills the writer mid-append:
// the final frame is half on disk. Replay must recover every earlier
// record and quarantine the torn bytes.
func TestCrashMidWALAppendTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 100)
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the frame boundaries and cut into the middle of the last
	// frame's payload.
	var bounds []int64
	replayWAL(data, func(walRecord) {})
	off := int64(0)
	for off < int64(len(data)) {
		bounds = append(bounds, off)
		n := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeaderLen + n
	}
	last := bounds[len(bounds)-1]
	cut := last + frameHeaderLen + 3 // header plus a few payload bytes
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	// Reference: a store replayed from the intact prefix.
	refDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(refDir, walName), data[:last], 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenOptions(refDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLive := ref.Live()
	ref.Close()

	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.QuarantinedWALBytes != cut-last {
		t.Errorf("quarantined %d bytes, want %d", stats.QuarantinedWALBytes, cut-last)
	}
	q, err := os.ReadFile(filepath.Join(dir, walQuarantine))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if int64(len(q)) != cut-last {
		t.Errorf("quarantine holds %d bytes, want %d", len(q), cut-last)
	}
	got := st.Live()
	if len(got) != 1 || len(wantLive) != 1 {
		t.Fatalf("live jobs: got %d, want 1", len(got))
	}
	sameLiveJob(t, got[0], wantLive[0])

	// The store must stay writable after recovery: the truncated log
	// accepts new appends and a further reopen sees them.
	if err := st.Append("victim", "cpu", 0, []time.Duration{100 * time.Second}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Live()[0].Samples; got != wantLive[0].Samples+1 {
		t.Errorf("post-recovery append lost: %d samples, want %d", got, wantLive[0].Samples+1)
	}
}

// TestCrashCorruptWALRecord flips one payload byte mid-log: the CRC
// catches it, replay stops there, and everything from the corrupt
// frame onward is quarantined (framing cannot resync past a bad
// frame without risking misparses).
func TestCrashCorruptWALRecord(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir, 100)
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte in the middle of the file.
	mid := len(data) / 2
	data[mid] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.QuarantinedWALBytes == 0 {
		t.Error("corrupt record was not quarantined")
	}
	// Whatever was recovered must be internally consistent: every
	// series' columns equal-length, job samples = sum of series.
	for _, j := range st.Live() {
		var total int64
		for _, sr := range j.Series {
			if len(sr.Offsets) != len(sr.Values) {
				t.Fatalf("ragged recovered columns in %s[%d]", sr.Metric, sr.Node)
			}
			total += int64(len(sr.Values))
		}
		if total != j.Samples {
			t.Errorf("job %s: sample count %d != column total %d", j.ID, j.Samples, total)
		}
	}
}

// TestCrashMidSegmentFlush reproduces a kill between the temp-file
// write and the rename: the directory holds a *.tmp leftover. Open
// must remove it and recover everything from the WAL (which is only
// compacted after a successful flush).
func TestCrashMidSegmentFlush(t *testing.T) {
	dir := t.TempDir()
	want := buildStore(t, dir, 120)
	// A half-written segment temp file, as the killed flush left it.
	if err := os.WriteFile(filepath.Join(dir, segPrefix+"12345678.tmp"), []byte(segMagicHead+"partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	if _, err := os.Stat(filepath.Join(dir, segPrefix+"12345678.tmp")); !os.IsNotExist(err) {
		t.Error("flush temp file not cleaned up")
	}
	got := st.Live()
	if len(got) != 1 {
		t.Fatalf("live jobs: %d, want 1", len(got))
	}
	sameLiveJob(t, got[0], want)
	if st.Stats().Segments != 0 {
		t.Error("phantom segment appeared")
	}
}

// TestCrashTornSegmentQuarantined covers a renamed-but-torn segment
// (lying hardware): the file fails validation and is quarantined as
// *.corrupt rather than crashing the store or serving bad data.
func TestCrashTornSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Register("ok", 1); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "ok", 60, 13)
	if err := st.Finish("ok", "good"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, segName(0)), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenOptions(dir2, Options{})
		if err != nil {
			t.Fatalf("open with torn segment: %v", err)
		}
		defer st2.Close()
		if got := st2.Stats().QuarantinedSegments; got != 1 {
			t.Errorf("quarantined segments = %d, want 1", got)
		}
		if _, err := os.Stat(filepath.Join(dir2, segName(0)+".corrupt")); err != nil {
			t.Errorf("quarantined file missing: %v", err)
		}
		if len(st2.Executions()) != 0 {
			t.Error("torn segment served executions")
		}
	})

	t.Run("bit-rotted block", func(t *testing.T) {
		dir2 := t.TempDir()
		rotted := append([]byte(nil), data...)
		rotted[len(segMagicHead)+16] ^= 0x01 // inside the first value column
		if err := os.WriteFile(filepath.Join(dir2, segName(0)), rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenOptions(dir2, Options{})
		if err != nil {
			t.Fatalf("open with rotted segment: %v", err)
		}
		defer st2.Close()
		if got := st2.Stats().QuarantinedSegments; got != 1 {
			t.Errorf("quarantined segments = %d, want 1", got)
		}
	})
}

// TestCrashBetweenFlushAndCompaction: the segment rename completed but
// the WAL still holds the flushed job (compaction never ran). Recovery
// must deduplicate by sequence number — the execution appears exactly
// once and no live ghost remains.
func TestCrashBetweenFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Register("flushed", 2); err != nil {
		t.Fatal(err)
	}
	feedJob(t, st, "flushed", 80, 17)
	if err := st.Finish("flushed", "lbl"); err != nil {
		t.Fatal(err)
	}
	// Snapshot the pre-compaction WAL (register + runs + finish).
	preWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Roll the WAL back, as if the crash hit right after the segment
	// rename.
	if err := os.WriteFile(filepath.Join(dir, walName), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	execs := st2.Executions()
	if len(execs) != 1 || !execs[0].Stored {
		t.Fatalf("executions after dedup: %+v", execs)
	}
	if got := len(st2.Live()); got != 0 {
		t.Errorf("%d ghost live jobs after dedup", got)
	}
	if got := st2.Stats().PendingJobs; got != 0 {
		t.Errorf("%d ghost pending jobs after dedup", got)
	}
	ns, err := st2.ExecutionSeries("flushed")
	if err != nil {
		t.Fatal(err)
	}
	if ns.Get(0, "cpu") == nil {
		t.Error("deduped execution lost its telemetry")
	}
}
