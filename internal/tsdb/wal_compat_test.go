package tsdb

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// walTypeRunChunk is the walRunChunk testdata/wal_typerun.log was
// written with, so its longest run spans several records.
const walTypeRunChunk = 4

// walTypeRunAppend is one Store.Append of the script below.
type walTypeRunAppend struct {
	job, metric string
	node        int
	offs        []time.Duration
	vals        []float64
}

// walTypeRunScript is what testdata/wal_typerun.log holds. The file
// was written by the store's writer from before job-runs records,
// which logged every Append as TypeRun records. In order: register
// "live" (2 nodes) and "fin" and "gone" (1 node each), then the
// appends below (each its own commit), then Finish("fin", "ft_X") and
// Drop("gone").
func walTypeRunScript() []walTypeRunAppend {
	s := time.Second
	ms := time.Millisecond
	long := make([]time.Duration, 10)
	longVals := make([]float64, 10)
	for i := range long {
		long[i] = time.Duration(i) * s
		longVals[i] = 6000 + float64(i)/3
	}
	return []walTypeRunAppend{
		{"live", "cpu", 0, []time.Duration{0}, []float64{1.5}},
		{"live", "cpu", 0, []time.Duration{s, 2 * s, 3 * s, 4 * s}, []float64{math.Copysign(0, -1), 5e-324, 0.1, math.MaxFloat64}},
		{"live", "mem", 1, []time.Duration{500 * ms, 1500 * ms, 2750 * ms}, []float64{-7.25, 6010.123456789012, 1e300}},
		{"fin", "cpu", 0, []time.Duration{0, s, 2 * s}, []float64{6000, 6001, 6002}},
		{"live", "cpu", 1, long, longVals}, // 10 samples: records of 4, 4 and 2
		{"gone", "cpu", 0, []time.Duration{0}, []float64{9}},
		{"live", "cpu", 0, []time.Duration{7 * s}, []float64{-1e-310}},
		{"fin", "cpu", 0, []time.Duration{3 * s}, []float64{6003}},
	}
}

// walTypeRunWant folds the script into the columns each (job, metric,
// node) series must hold after replay, in arrival order.
func walTypeRunWant() map[string]map[seriesKey]walTypeRunAppend {
	want := map[string]map[seriesKey]walTypeRunAppend{}
	for _, a := range walTypeRunScript() {
		if want[a.job] == nil {
			want[a.job] = map[seriesKey]walTypeRunAppend{}
		}
		k := seriesKey{a.metric, a.node}
		w := want[a.job][k]
		w.offs = append(w.offs, a.offs...)
		w.vals = append(w.vals, a.vals...)
		want[a.job][k] = w
	}
	return want
}

// walTypeRunLog reads the committed parent-format WAL.
func walTypeRunLog(tb testing.TB) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "wal_typerun.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// checkColumns compares one replayed series with its expected columns
// by offsets and value bits.
func checkColumns(t *testing.T, what string, offs []time.Duration, vals []float64, want walTypeRunAppend) {
	t.Helper()
	if len(offs) != len(want.offs) || len(vals) != len(want.vals) {
		t.Fatalf("%s: %d offsets, %d values, want %d", what, len(offs), len(vals), len(want.vals))
	}
	for i := range want.vals {
		if offs[i] != want.offs[i] {
			t.Errorf("%s sample %d: offset %v, want %v", what, i, offs[i], want.offs[i])
		}
		if math.Float64bits(vals[i]) != math.Float64bits(want.vals[i]) {
			t.Errorf("%s sample %d: value bits %#x, want %#x", what, i, math.Float64bits(vals[i]), math.Float64bits(want.vals[i]))
		}
	}
}

// TestWALTypeRunReplays pins that a WAL written before job-runs
// records replays in full: no quarantine, the live job's every series
// by offsets and value bits, the finished job as a pending execution,
// and the dropped job gone.
func TestWALTypeRunReplays(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), walTypeRunLog(t), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if q := st.Recovery().QuarantinedWALBytes; q != 0 {
		t.Fatalf("QuarantinedWALBytes = %d, want 0", q)
	}
	// 3 registers, 10 run records (the 10-sample run is 3), a finish
	// and a drop.
	if r := st.Stats().ReplayedRecords; r != 15 {
		t.Errorf("ReplayedRecords = %d, want 15", r)
	}
	want := walTypeRunWant()

	live := st.Live()
	if len(live) != 1 || live[0].ID != "live" || live[0].Nodes != 2 {
		t.Fatalf("live jobs: %+v", live)
	}
	if live[0].Samples != 19 || live[0].LastOffset != 9*time.Second {
		t.Errorf("live: %d samples, last offset %v, want 19 and 9s", live[0].Samples, live[0].LastOffset)
	}
	if len(live[0].Series) != len(want["live"]) {
		t.Fatalf("live: %d series, want %d", len(live[0].Series), len(want["live"]))
	}
	for _, sr := range live[0].Series {
		checkColumns(t, "live "+sr.Metric, sr.Offsets, sr.Values, want["live"][seriesKey{sr.Metric, sr.Node}])
	}

	execs := st.Executions()
	if len(execs) != 1 || execs[0].ID != "fin" || execs[0].Label != "ft_X" || execs[0].Stored || execs[0].Samples != 4 {
		t.Fatalf("executions: %+v", execs)
	}
	ns, err := st.ExecutionSeries("fin")
	if err != nil {
		t.Fatal(err)
	}
	s := ns.Get(0, "cpu")
	if ns.NumSeries() != 1 || s == nil {
		t.Fatalf("fin: %d series", ns.NumSeries())
	}
	checkColumns(t, "fin cpu", s.AppendOffsets(nil), s.Values(), want["fin"][seriesKey{"cpu", 0}])

	if _, _, err := st.Series("gone"); err == nil {
		t.Error("dropped job still has telemetry")
	}
}
