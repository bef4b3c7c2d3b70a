package tsdb

// Fuzzers for the two on-disk decoders. Both must tolerate arbitrary
// bytes — a torn WAL or a rotted segment is, after all, just arbitrary
// bytes — without panicking, and whatever they do accept must satisfy
// the store's structural invariants. `make fuzz-short` runs these (and
// the LDMS CSV fuzzer) for a bounded time.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// validWALBytes builds a small real WAL for the seed corpus.
func validWALBytes(tb testing.TB) []byte {
	dir := tb.TempDir()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.Register("seed", 2); err != nil {
		tb.Fatal(err)
	}
	offs := []time.Duration{0, telemetry.DefaultPeriod, 3 * telemetry.DefaultPeriod}
	if err := st.Append("seed", "cpu", 1, offs, []float64{1, 2, 3}); err != nil {
		tb.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// validSegmentBytes builds a small real segment for the seed corpus.
func validSegmentBytes(tb testing.TB) []byte {
	dir := tb.TempDir()
	st := flushOneExec(tb, dir, 2, 16)
	path := st.segs[0].path
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(validWALBytes(f))
	data := validWALBytes(f)
	f.Add(data[:len(data)-5]) // torn tail
	f.Add(walTypeRunLog(f))   // written before job-runs records
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// NoSync: replay and quarantine behave identically, and skipping
		// fsyncs keeps the fuzzer's throughput up.
		st, err := OpenOptions(dir, Options{NoSync: true})
		if err != nil {
			return // rejected cleanly
		}
		// Whatever replayed must be structurally sound and the store
		// usable: columns equal-length, Live() consistent, and a
		// reopen after clean close replays to the same state.
		live := st.Live()
		for _, j := range live {
			var total int64
			for _, sr := range j.Series {
				if len(sr.Offsets) != len(sr.Values) {
					t.Fatalf("ragged columns in %s[%d]", sr.Metric, sr.Node)
				}
				total += int64(len(sr.Values))
			}
			if total != j.Samples {
				t.Fatalf("job %s: samples %d != columns %d", j.ID, j.Samples, total)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		st2, err := OpenOptions(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("second open after quarantine: %v", err)
		}
		if got := len(st2.Live()); got != len(live) {
			t.Fatalf("replay not idempotent: %d live jobs, then %d", len(live), got)
		}
		st2.Close()
	})
}

func FuzzSegmentOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagicHead))
	data := validSegmentBytes(f)
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add(histFooterSegment(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(0))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := openSegment(vfs.OS{}, path)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted segments must materialize every execution without
		// panicking and yield well-formed, queryable series.
		for i := range g.footer.Execs {
			e := &g.footer.Execs[i]
			ns := g.nodeSet(e, true)
			for _, node := range ns.Nodes() {
				for _, m := range ns.Metrics() {
					s := ns.Get(node, m)
					if s == nil || s.Len() == 0 {
						continue
					}
					w := telemetry.Window{Start: 0, End: s.Duration() + telemetry.DefaultPeriod}
					if _, err := s.WindowMean(w); err != nil {
						t.Fatalf("accepted segment series unqueryable: %v", err)
					}
				}
			}
		}
		g.close()
	})
}
