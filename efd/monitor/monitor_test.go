package monitor

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/telemetry"
)

type fixedSource struct {
	nodes int
	level float64
}

func (f fixedSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	if metric != apps.HeadlineMetric || node >= f.nodes {
		return 0, false
	}
	return f.level, true
}

func (f fixedSource) NodeCount() int { return f.nodes }

func testDict(t testing.TB) *core.Dictionary {
	t.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(fixedSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	d.Learn(fixedSource{nodes: 2, level: 7000}, apps.Label{App: "mg", Input: apps.InputX})
	return d
}

func flat(level float64, nodes, upToS int) []Sample {
	var out []Sample
	for sec := 0; sec <= upToS; sec++ {
		for node := 0; node < nodes; node++ {
			out = append(out, Sample{Metric: apps.HeadlineMetric, Node: node, OffsetS: float64(sec), Value: level})
		}
	}
	return out
}

// TestEmbeddedLifecycle is the headline embedding story: register,
// ingest, recognize, label — no HTTP anywhere.
func TestEmbeddedLifecycle(t *testing.T) {
	e := New(testDict(t))
	jb, err := e.Register("job-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	// A recognizable job first: the known ft level.
	known, err := e.Register("known", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := known.Ingest(flat(6010, 2, 125)); err != nil {
		t.Fatal(err)
	}
	if st, err := known.Result(); err != nil || !st.Complete || st.Top != "ft" || st.Confidence != 1 {
		t.Fatalf("known state: %+v, %v", st, err)
	}
	if err := known.Close(); err != nil {
		t.Fatal(err)
	}
	// job-1 runs at a level no trained application uses.
	if _, err := jb.Ingest(flat(9000, 2, 30)); err != nil {
		t.Fatal(err)
	}
	st, err := jb.Result()
	if err != nil || st.Complete {
		t.Fatalf("early state: %+v, %v", st, err)
	}
	if _, err := jb.Ingest(flat(9000, 2, 125)); err != nil {
		t.Fatal(err)
	}
	st, err = jb.Result()
	if err != nil || !st.Complete {
		t.Fatalf("final state: %+v, %v", st, err)
	}
	sum, err := jb.Summary()
	if err != nil || sum.Samples != int64(len(flat(0, 2, 30))+len(flat(0, 2, 125))) {
		t.Fatalf("summary: %+v, %v", sum, err)
	}
	learned, err := jb.Label("lammps", "X")
	if err != nil || learned != "lammps_X" {
		t.Fatalf("label: %q, %v", learned, err)
	}
	// The handle is dead now; so is a fresh lookup.
	if _, err := jb.Result(); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("result after label: %v", err)
	}
	if _, ok := e.Lookup("job-1"); ok {
		t.Fatal("labelled job still resolvable")
	}
	// The engine learned the new application online.
	var top string
	e.Dictionary().Read(func(d *core.Dictionary) {
		top = d.Recognize(fixedSource{nodes: 2, level: 9000}).Top()
	})
	if top != "lammps" {
		t.Fatalf("online learn: %q", top)
	}
}

func TestRegisterErrors(t *testing.T) {
	e := New(testDict(t))
	e.MaxJobs = 2
	if _, err := e.Register("", 2); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty id: %v", err)
	}
	if _, err := e.Register("a", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero nodes: %v", err)
	}
	if _, err := e.Register("a/b", 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("slash id: %v", err)
	}
	if _, err := e.Register("dup", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("dup", 1); !errors.Is(err, ErrJobExists) {
		t.Errorf("duplicate: %v", err)
	}
	jb, err := e.Register("fill", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("over", 1); !errors.Is(err, ErrTableFull) {
		t.Errorf("over capacity: %v", err)
	}
	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jb.Close(); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("double close: %v", err)
	}
	if _, err := e.Register("again", 1); err != nil {
		t.Errorf("register after close: %v", err)
	}
}

func TestLabelBeforeComplete(t *testing.T) {
	e := New(testDict(t))
	jb, _ := e.Register("early", 2)
	if _, err := jb.Label("ft", "X"); !errors.Is(err, ErrNotComplete) {
		t.Fatalf("early label: %v", err)
	}
	if _, err := jb.Label("ft", "NOPE"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad label: %v", err)
	}
}

// TestRunsMatchSamples: feeding columnar runs produces bit-identical
// recognition state to feeding the same telemetry as row samples.
func TestRunsMatchSamples(t *testing.T) {
	values := []float64{6010.123456789, 6009.87654321, 6010.5, 6011.25}
	e1 := New(testDict(t))
	j1, _ := e1.Register("j", 2)
	var samples []Sample
	for node := 0; node < 2; node++ {
		for sec := 0; sec <= 125; sec++ {
			samples = append(samples, Sample{Metric: apps.HeadlineMetric, Node: node, OffsetS: float64(sec), Value: values[sec%len(values)]})
		}
	}
	if _, err := j1.Ingest(samples); err != nil {
		t.Fatal(err)
	}

	e2 := New(testDict(t))
	j2, _ := e2.Register("j", 2)
	var runs []Run
	for node := 0; node < 2; node++ {
		run := Run{Metric: apps.HeadlineMetric, Node: node}
		for sec := 0; sec <= 125; sec++ {
			run.Offsets = append(run.Offsets, time.Duration(sec)*time.Second)
			run.Values = append(run.Values, values[sec%len(values)])
		}
		runs = append(runs, run)
	}
	if _, _, err := e2.IngestRuns([]RunBatch{{JobID: "j", Runs: runs}}); err != nil {
		t.Fatal(err)
	}

	s1, err1 := j1.Result()
	s2, err2 := j2.Result()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if string(b1) != string(b2) {
		t.Errorf("runs diverged from samples:\n samples: %s\n runs:    %s", b1, b2)
	}
}

func TestIngestValidation(t *testing.T) {
	e := New(testDict(t))
	jb, _ := e.Register("v", 1)
	if _, err := jb.Ingest([]Sample{{Metric: "m", OffsetS: 1e300, Value: 1}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("huge offset: %v", err)
	}
	nan := func() float64 { z := 0.0; return z / z }()
	if _, err := jb.IngestRun("m", 0, []time.Duration{0}, []float64{nan}); !errors.Is(err, ErrInvalid) {
		t.Errorf("NaN run value: %v", err)
	}
	if _, err := jb.IngestRun("m", 0, []time.Duration{0, 1}, []float64{1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("ragged run: %v", err)
	}
	// Nothing was fed by the rejected calls.
	if sum, _ := jb.Summary(); sum.Samples != 0 {
		t.Errorf("samples fed despite rejection: %d", sum.Samples)
	}
	if st := e.Stats(); st.BatchesRejected != 3 || st.SampleBatches != 3 {
		t.Errorf("rejection counters: %+v", st)
	}
}

// TestEngineStoreRoundTrip: a storage-backed engine survives a
// restart with identical recognition state, and labelled executions
// are re-recognizable after further learning.
func TestEngineStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := New(testDict(t))
	if _, err := e.OpenStore(dir, StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	jb, err := e.Register("durable", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(7010, 2, 125)); err != nil {
		t.Fatal(err)
	}
	want, err := jb.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Fresh engine over the same directory: the job must come back.
	e2 := New(testDict(t))
	recovered, err := e2.OpenStore(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseStore()
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	jb2, ok := e2.Lookup("durable")
	if !ok {
		t.Fatal("recovered job not resolvable")
	}
	got, err := jb2.Result()
	if err != nil {
		t.Fatal(err)
	}
	bw, _ := json.Marshal(want)
	bg, _ := json.Marshal(got)
	if string(bw) != string(bg) {
		t.Errorf("recovered state diverged:\n before: %s\n after:  %s", bw, bg)
	}

	// Label it, then re-recognize the stored execution.
	if _, err := jb2.Label("mg", "X"); err != nil {
		t.Fatal(err)
	}
	execs, err := e2.Executions()
	if err != nil || len(execs) != 1 || execs[0].Label != "mg_X" {
		t.Fatalf("executions: %+v, %v", execs, err)
	}
	st, err := e2.RecognizeStored("durable")
	if err != nil || st.Top != "mg" {
		t.Fatalf("re-recognize: %+v, %v", st, err)
	}
	dump, err := e2.Series("durable")
	if err != nil || dump.Source != "stored" || len(dump.Series) != 2 {
		t.Fatalf("series: source %q, %d series, %v", dump.Source, len(dump.Series), err)
	}
	if stats := e2.Stats(); stats.Store == nil || stats.Store.Rerecognitions != 1 || stats.Store.RecoveredJobs != 1 {
		t.Fatalf("store stats: %+v", stats.Store)
	}
}

// TestSeriesDumpOffsets pins the offsets_s contract of Series: a live
// job dumps an off-grid, out-of-order series in arrival order, its
// flushed execution dumps the stable sort, and a series on the 1 Hz
// grid omits offsets_s either way.
func TestSeriesDumpOffsets(t *testing.T) {
	e := New(testDict(t))
	if _, err := e.OpenStore(t.TempDir(), StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()
	jb, err := e.Register("irr", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 125)); err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	if _, err := jb.IngestRun("aux", 0, []time.Duration{2500 * ms, 500 * ms, 1500 * ms}, []float64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := jb.IngestRun("aux", 0, []time.Duration{1500 * ms}, []float64{2.5}); err != nil {
		t.Fatal(err)
	}
	check := func(source string, wantOffs, wantVals []float64) {
		t.Helper()
		dump, err := e.Series("irr")
		if err != nil || dump.Source != source || len(dump.Series) != 3 {
			t.Fatalf("%s dump: source %q, %d series, %v", source, dump.Source, len(dump.Series), err)
		}
		for _, sd := range dump.Series {
			if sd.Metric != "aux" {
				if sd.OffsetsS != nil || sd.Count != 126 {
					t.Errorf("%s grid series %s[%d]: count %d, offsets_s %v (want omitted)", source, sd.Metric, sd.Node, sd.Count, sd.OffsetsS)
				}
				continue
			}
			if !slices.Equal(sd.OffsetsS, wantOffs) || !slices.Equal(sd.Values, wantVals) || sd.Count != len(wantVals) {
				t.Errorf("%s aux: offsets_s %v values %v, want %v %v", source, sd.OffsetsS, sd.Values, wantOffs, wantVals)
			}
		}
	}
	check("live", []float64{2.5, 0.5, 1.5, 1.5}, []float64{3, 1, 2, 2.5})
	if _, err := jb.Label("ft", "X"); err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	check("stored", []float64{0.5, 1.5, 1.5, 2.5}, []float64{1, 2, 2.5, 3})
}

// TestNoStoreQueries: storage queries without a store report
// ErrNoStore.
func TestNoStoreQueries(t *testing.T) {
	e := New(testDict(t))
	if _, err := e.Series("x"); !errors.Is(err, ErrNoStore) {
		t.Errorf("series: %v", err)
	}
	if _, err := e.Executions(); !errors.Is(err, ErrNoStore) {
		t.Errorf("executions: %v", err)
	}
	if _, err := e.RecognizeStored("x"); !errors.Is(err, ErrNoStore) {
		t.Errorf("recognize: %v", err)
	}
	if e.HasStore() {
		t.Error("HasStore on storeless engine")
	}
	if err := e.CloseStore(); err != nil {
		t.Errorf("close nil store: %v", err)
	}
}

func TestJobsListing(t *testing.T) {
	e := New(testDict(t))
	for _, id := range []string{"c", "a", "b"} {
		if _, err := e.Register(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	l, err := e.Jobs(1, 1)
	if err != nil || l.Total != 3 || len(l.Jobs) != 1 || l.Jobs[0].JobID != "b" {
		t.Fatalf("listing: %+v, %v", l, err)
	}
	if _, err := e.Jobs(-1, 10); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := e.Jobs(0, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero limit: %v", err)
	}
}

// TestIngestOneStoreAppendPerJob pins the store cost of an ingest
// call: every job's runs go to the WAL as one record, however many
// runs the call carries for it — for columnar batches and for JSON
// rows alike — and replay restores every sample.
func TestIngestOneStoreAppendPerJob(t *testing.T) {
	dir := t.TempDir()
	e := New(testDict(t))
	if _, err := e.OpenStore(dir, StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	metrics := []string{apps.HeadlineMetric, "aux_a", "aux_b"}
	var batches []RunBatch
	for _, id := range []string{"a", "b"} {
		if _, err := e.Register(id, 2); err != nil {
			t.Fatal(err)
		}
		b := RunBatch{JobID: id}
		for node := 0; node < 2; node++ {
			for _, m := range metrics {
				b.Runs = append(b.Runs, Run{Metric: m, Node: node, Offsets: []time.Duration{time.Second, 2 * time.Second}, Values: []float64{6000, 6001}})
			}
		}
		batches = append(batches, b)
	}
	pre := e.Stats().Store.AppendedRecords
	if n, _, err := e.IngestRuns(batches); err != nil || n != 24 {
		t.Fatalf("IngestRuns: %d, %v", n, err)
	}
	if got := e.Stats().Store.AppendedRecords - pre; got != 2 {
		t.Errorf("IngestRuns appended %d WAL records for 2 jobs × 6 runs, want 2", got)
	}
	rows := []Batch{{JobID: "a", Samples: []Sample{
		{Metric: apps.HeadlineMetric, Node: 0, OffsetS: 3, Value: 1},
		{Metric: "aux_a", Node: 0, OffsetS: 3, Value: 2},
		{Metric: apps.HeadlineMetric, Node: 1, OffsetS: 3, Value: 3},
	}}}
	pre = e.Stats().Store.AppendedRecords
	if n, _, err := e.IngestBatches(rows); err != nil || n != 3 {
		t.Fatalf("IngestBatches: %d, %v", n, err)
	}
	if got := e.Stats().Store.AppendedRecords - pre; got != 1 {
		t.Errorf("IngestBatches appended %d WAL records for 1 job × 3 runs, want 1", got)
	}
	if err := e.CloseStore(); err != nil {
		t.Fatal(err)
	}
	e2 := New(testDict(t))
	if recovered, err := e2.OpenStore(dir, StoreOptions{NoSync: true}); err != nil || recovered != 2 {
		t.Fatalf("reopen: %d jobs, %v", recovered, err)
	}
	defer e2.CloseStore()
	dump, err := e2.Series("a")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sd := range dump.Series {
		total += sd.Count
	}
	if total != 15 {
		t.Errorf("job a replayed %d samples, want 15", total)
	}
}
