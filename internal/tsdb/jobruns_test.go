package tsdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
)

// ingestMetrics are the four metrics a benchmark forwarder sends per
// node on every tick.
var ingestMetrics = []string{"nr_mapped_vmstat", "nr_active_anon_vmstat", "Committed_AS_meminfo", "AMO_PKTS_metric_set_nic"}

// TestJobRunsWALBytesIngestShape counts the WAL bytes of one ingest
// call of the benchmark's shape — 16 jobs × 4 nodes × 4 metrics, one
// tick at 149 s — against the TypeRun records the same runs cost:
// at most a third, in one record per job.
func TestJobRunsWALBytesIngestShape(t *testing.T) {
	st, err := OpenOptions(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const jobs, nodes = 16, 4
	for j := 0; j < jobs; j++ {
		if err := st.Register(fmt.Sprintf("ingest-0-%06d", 123+j), nodes); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	tick := []time.Duration{149 * time.Second}
	typeRun, samples := 0, 0
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("ingest-0-%06d", 123+j)
		vals := make([][]float64, nodes*len(ingestMetrics))
		for i := range vals {
			vals[i] = []float64{6000 + float64(i)/7}
			typeRun += len(wire.AppendFrame(nil, wire.AppendRun(nil, job, ingestMetrics[i%4], i/4, tick, vals[i])))
			samples++
		}
		err := st.AppendRuns(job, len(vals), func(i int) (string, int, []time.Duration, []float64) {
			return ingestMetrics[i%4], i / 4, tick, vals[i]
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	after := st.Stats()
	got := after.WALBytes - before.WALBytes
	t.Logf("WAL: %d B for %d samples (%.1f B/sample), TypeRun %.1f B/sample", got, samples, float64(got)/float64(samples), float64(typeRun)/float64(samples))
	if 3*got > int64(typeRun) {
		t.Errorf("WAL appended %d B, more than a third of TypeRun's %d B", got, typeRun)
	}
	if recs := after.AppendedRecords - before.AppendedRecords; recs != jobs {
		t.Errorf("%d records appended, want one per job (%d)", recs, jobs)
	}
}

// TestAppendRunsChunksAndReplays lowers walRunChunk so one job-level
// append spans several records — a long run split across two of them
// — and requires the replayed memtable to equal the appended columns,
// with empty runs skipped and a ragged append refused whole. It then
// compacts the WAL, whose records group the job's series up to the
// same bound, and replays again.
func TestAppendRunsChunksAndReplays(t *testing.T) {
	old := walRunChunk
	walRunChunk = 5
	defer func() { walRunChunk = old }()
	dir := t.TempDir()
	st, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Register("j", 2); err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	runs := []walTypeRunAppend{
		{"j", "cpu", 0, []time.Duration{0, time.Second, 2 * time.Second}, []float64{1, math.Copysign(0, -1), 3}},
		{"j", "io", 1, []time.Duration{7 * ms}, []float64{-2}},
		{"j", "mem", 1, nil, nil},
		{"j", "mem", 0, []time.Duration{250 * ms, 500 * ms, 750 * ms, 1000 * ms, 1250 * ms, 1500 * ms, 1750 * ms}, []float64{1, 2, 3, 4, 5, 6, 5e-324}},
		{"j", "cpu", 0, []time.Duration{3 * time.Second}, []float64{4}},
	}
	run := func(i int) (string, int, []time.Duration, []float64) {
		return runs[i].metric, runs[i].node, runs[i].offs, runs[i].vals
	}
	pre := st.Stats().AppendedRecords
	if err := st.AppendRuns("j", len(runs), run); err != nil {
		t.Fatal(err)
	}
	// 12 samples in records of at most 5.
	if recs := st.Stats().AppendedRecords - pre; recs != 3 {
		t.Errorf("%d records, want 3", recs)
	}
	ragged := func(i int) (string, int, []time.Duration, []float64) {
		return "cpu", 0, []time.Duration{9 * time.Second}, []float64{1, 2}
	}
	if err := st.AppendRuns("j", 1, ragged); err == nil {
		t.Error("ragged run accepted")
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	want := st.Live()
	wantCols := map[seriesKey]walTypeRunAppend{}
	for _, r := range runs {
		k := seriesKey{r.metric, r.node}
		w := wantCols[k]
		w.offs, w.vals = append(w.offs, r.offs...), append(w.vals, r.vals...)
		wantCols[k] = w
	}
	reopen := func(what string) *Store {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := replayWAL(data, func(rec walRecord) {
			if rec.Type == recRun {
				t.Errorf("%s: a TypeRun record was written", what)
			}
		}); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenOptions(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := st2.Live()
		if len(got) != 1 || len(got[0].Series) != 3 || got[0].Samples != 12 {
			t.Fatalf("%s: replayed %+v", what, got)
		}
		sameLiveJob(t, got[0], want[0])
		for _, sr := range got[0].Series {
			checkColumns(t, what+" "+sr.Metric, sr.Offsets, sr.Values, wantCols[seriesKey{sr.Metric, sr.Node}])
		}
		return st2
	}
	st = reopen("appended")

	// A flush compacts the WAL: cpu/0 and io/1 (5 samples) share a
	// record, mem/0 (7) takes two.
	if err := st.Register("done", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish("done", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st = reopen("compacted")
	defer st.Close()
	// register + 3 job-runs records.
	if r := st.Stats().ReplayedRecords; r != 4 {
		t.Errorf("compacted WAL replayed %d records, want 4", r)
	}
}
