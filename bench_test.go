// Benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations of cmd/experiments -ablation and micro-benchmarks
// of the hot paths. Each Benchmark prints (once) the artifact it
// regenerates, then times the computation that produces it.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-scale numbers (Table 2 grid with 30 repeats, Taxonomist with
// 50+ trees) are produced by cmd/experiments; benchmarks use a reduced
// but structurally identical grid so iterations stay in the millisecond
// range.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/efd/client"
	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/ldms"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/taxonomist"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// benchDS lazily generates the shared benchmark dataset: the full
// 11-application grid at reduced repetition count with a representative
// metric subset (headline + strong memory + NIC + constant).
var (
	benchOnce sync.Once
	benchData *dataset.Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := dataset.DefaultGenConfig()
		cfg.Repeats = 8
		cfg.Cluster.Metrics = []string{
			apps.HeadlineMetric,
			"Committed_AS_meminfo",
			"Active_meminfo",
			"PI_PKTS_metric_set_nic",
			"MemTotal_meminfo",
		}
		benchData, benchErr = dataset.Generate(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func benchHarness(b *testing.B) *experiments.Harness {
	h := experiments.NewHarness(benchDataset(b))
	h.Folds = 4
	return h
}

// --- Table 1: the rounding-depth mechanism --------------------------

func BenchmarkTable1RoundingDepth(b *testing.B) {
	values := []float64{1358.0, 5.28, 0.038, 6012.7, 7530.2, 0.0004913}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range values {
			for depth := 1; depth <= 5; depth++ {
				_ = stats.RoundDepth(v, depth)
			}
		}
	}
}

// --- Table 2: dataset generation -------------------------------------

func BenchmarkTable2DatasetGeneration(b *testing.B) {
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "sp", "miniAMR"}
	cfg.Repeats = 2
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ds, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// --- Figure 1: the learn -> prune -> lookup pipeline ------------------

func BenchmarkFigure1Pipeline(b *testing.B) {
	ds := benchDataset(b)
	cfg := core.DefaultConfig(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.Build(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// One recognition per built dictionary: the lookup step.
		res := d.Recognize(core.Source(ds.Executions[i%ds.Len()]))
		if res.Total == 0 {
			b.Fatal("no fingerprints constructed")
		}
	}
}

// --- Figure 2: the five protocols -------------------------------------

func BenchmarkFigure2NormalFold(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := h.NormalFold()
		if err != nil {
			b.Fatal(err)
		}
		if s.EFD < 0.9 {
			b.Fatalf("normal fold F = %v, shape broken", s.EFD)
		}
	}
}

func BenchmarkFigure2SoftInput(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.SoftInput(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2SoftUnknown(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.SoftUnknown(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2HardInput(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.HardInput(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2HardUnknown(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.HardUnknown(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2TaxonomistNormalFold times the baseline side of
// Figure 2 with a reduced forest.
func BenchmarkFigure2TaxonomistNormalFold(b *testing.B) {
	h := benchHarness(b)
	h.Taxo = &experiments.TaxoConfig{
		Forest: taxonomist.ForestConfig{Trees: 10, Seed: 1, Parallel: true,
			Tree: taxonomist.TreeConfig{MinLeaf: 2}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := h.NormalFold()
		if err != nil {
			b.Fatal(err)
		}
		if !s.HasTaxonomist {
			b.Fatal("baseline missing")
		}
	}
}

// --- Table 3: the per-metric sweep ------------------------------------

func BenchmarkTable3MetricSweep(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := h.MetricSweep(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("sweep rows = %d", len(rows))
		}
	}
}

// --- Table 4: the example dictionary ----------------------------------

func BenchmarkTable4ExampleDictionary(b *testing.B) {
	ds := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.ExampleDictionary(ds)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Dump(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (cmd/experiments -ablation) -----------------------------

func BenchmarkAblationRoundingDepth(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.DepthAblation(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInterval(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.IntervalAblation(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVoting(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.VotingAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJointCombo(b *testing.B) {
	h := benchHarness(b)
	combos := map[string][]string{
		"pair": {apps.HeadlineMetric, "Committed_AS_meminfo"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ComboAblation(combos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDictionaryGrowth(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.DictionaryGrowth(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---------------------------------

func BenchmarkMicroLearnExecution(b *testing.B) {
	ds := benchDataset(b)
	cfg := core.DefaultConfig(3)
	d, err := core.NewDictionary(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ds.Executions[i%ds.Len()]
		d.Learn(core.Source(e), e.Label)
	}
}

func BenchmarkMicroRecognizeExecution(b *testing.B) {
	ds := benchDataset(b)
	d, err := core.Build(ds, core.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := d.Recognize(core.Source(ds.Executions[i%ds.Len()]))
		if res.Total == 0 {
			b.Fatal("no fingerprints")
		}
	}
}

// BenchmarkMicroRecognizeWarmed is the production request path: a
// warmed dictionary queried through a reused Recognizer. Expected
// steady state is 0 allocs/op — perf_test.go pins exactly that with
// testing.AllocsPerRun.
func BenchmarkMicroRecognizeWarmed(b *testing.B) {
	ds := benchDataset(b)
	d, err := core.Build(ds, core.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	rec := d.NewRecognizer()
	for _, e := range ds.Executions {
		rec.Recognize(core.Source(e)) // warm scratch + window indexes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rec.Recognize(core.Source(ds.Executions[i%ds.Len()]))
		if res.Total == 0 {
			b.Fatal("no fingerprints")
		}
	}
}

// BenchmarkFitSequential and BenchmarkFitParallel compare Fit at one
// worker versus GOMAXPROCS workers. The pool runs over candidate
// depths, each building one key index and scoring every fold from it;
// results are byte-identical, only wall-clock differs.
func benchFit(b *testing.B, workers int) {
	ds := benchDataset(b)
	cfg := core.DefaultFitConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Fit(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSequential(b *testing.B) { benchFit(b, 1) }
func BenchmarkFitParallel(b *testing.B)   { benchFit(b, 0) }

func BenchmarkMicroStreamFeed(b *testing.B) {
	ds := benchDataset(b)
	d, err := core.Build(ds, core.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewStream(d, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Feed(apps.HeadlineMetric, i%4, telemetry.PaperWindow.Start, 6000)
	}
}

func BenchmarkMicroEvaluate(b *testing.B) {
	pairs := make([]eval.Pair, 1000)
	names := apps.Names()
	for i := range pairs {
		pairs[i] = eval.Pair{Truth: names[i%len(names)], Pred: names[(i+i/7)%len(names)]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroTaxonomistPredict(b *testing.B) {
	ds := benchDataset(b)
	fvs, _, err := taxonomist.Extract(ds, taxonomist.FeatureConfig{})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := taxonomist.TrainForest(fvs[:200], taxonomist.ForestConfig{Trees: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = forest.Predict(fvs[i%len(fvs)].Values)
	}
}

// --- Server throughput: sharded vs. the seed's global mutex -----------

// benchLevelSource yields a flat headline-metric level, so each learned
// level becomes one fingerprint per node.
type benchLevelSource struct {
	nodes int
	level float64
}

func (f benchLevelSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	if metric != apps.HeadlineMetric || node >= f.nodes {
		return 0, false
	}
	return f.level, true
}

func (f benchLevelSource) NodeCount() int { return f.nodes }

func benchServerDictionary(b testing.TB) *core.Dictionary {
	b.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d.Learn(benchLevelSource{nodes: 2, level: 1000 * float64(i+1)},
			apps.Label{App: fmt.Sprintf("app%d", i), Input: apps.InputX})
	}
	return d
}

type benchWireSample struct {
	Metric  string  `json:"metric"`
	Node    int     `json:"node"`
	OffsetS float64 `json:"offset_s"`
	Value   float64 `json:"value"`
}

// benchServerWorkload registers nJobs jobs against the handler and
// returns one prebuilt ingest body and poll path per job.
func benchServerWorkload(b testing.TB, h http.Handler, nJobs int) (bodies [][]byte, polls []string) {
	b.Helper()
	for i := 0; i < nJobs; i++ {
		id := fmt.Sprintf("bench-job-%03d", i)
		reg, _ := json.Marshal(map[string]any{"job_id": id, "nodes": 2})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(reg)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("register %s: %d %s", id, rec.Code, rec.Body)
		}
		level := 1000 * float64(i%8+1)
		var samples []benchWireSample
		for k := 0; k < 16; k++ {
			for node := 0; node < 2; node++ {
				samples = append(samples, benchWireSample{
					Metric: apps.HeadlineMetric, Node: node,
					OffsetS: 60 + float64(4*k), Value: level,
				})
			}
		}
		body, _ := json.Marshal(map[string]any{"job_id": id, "samples": samples})
		bodies = append(bodies, body)
		polls = append(polls, "/v1/jobs/"+id)
	}
	return bodies, polls
}

// runServerThroughput drives a mixed parallel workload — 3 ingest
// batches to 1 recognition poll, spread across the jobs — through the
// handler with one client goroutine per GOMAXPROCS.
func runServerThroughput(b *testing.B, h http.Handler, nJobs int) {
	bodies, polls := benchServerWorkload(b, h, nJobs)
	var fail atomic.Bool
	var gids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gid := int(gids.Add(1))
		i := 0
		for pb.Next() {
			jobIdx := (gid*13 + i) % nJobs
			rec := httptest.NewRecorder()
			if i%4 == 3 {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, polls[jobIdx], nil))
			} else {
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/samples", bytes.NewReader(bodies[jobIdx])))
			}
			if rec.Code != http.StatusOK {
				fail.Store(true)
			}
			i++
		}
	})
	b.StopTimer()
	if fail.Load() {
		b.Fatal("request failed during benchmark")
	}
}

// BenchmarkServerThroughput measures the sharded monitoring server
// under mixed parallel ingest + recognition across 64 jobs. Compare
// against BenchmarkServerThroughputSerialized (the seed's single
// global mutex) at the same -cpu to see the concurrency win.
func BenchmarkServerThroughput(b *testing.B) {
	s := server.NewEngine(monitor.New(benchServerDictionary(b)))
	b.ReportAllocs()
	runServerThroughput(b, s.Handler(), 64)
}

// serializedServer replicates the seed server's locking: one global
// mutex covering every job-table access, stream feed, recognition, and
// response encode (JSON decode happened outside the lock, as in the
// seed). It serves as the baseline for the sharding speedup.
type serializedServer struct {
	mu   sync.Mutex
	dict *core.Dictionary
	jobs map[string]*core.Stream
}

func (s *serializedServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			JobID string `json:"job_id"`
			Nodes int    `json:"nodes"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.jobs[req.JobID] = core.NewStream(s.dict, req.Nodes)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]string{"job_id": req.JobID})
	})
	mux.HandleFunc("/v1/samples", func(w http.ResponseWriter, r *http.Request) {
		var batch struct {
			JobID   string            `json:"job_id"`
			Samples []benchWireSample `json:"samples"`
		}
		json.NewDecoder(r.Body).Decode(&batch)
		s.mu.Lock()
		defer s.mu.Unlock()
		st, ok := s.jobs[batch.JobID]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		for _, smp := range batch.Samples {
			st.Feed(smp.Metric, smp.Node, time.Duration(smp.OffsetS*float64(time.Second)), smp.Value)
		}
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(batch.Samples)})
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Path[len("/v1/jobs/"):]
		s.mu.Lock()
		defer s.mu.Unlock()
		st, ok := s.jobs[id]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		res := st.Recognize()
		json.NewEncoder(w).Encode(map[string]any{
			"job_id": id, "complete": st.Complete(), "top": res.Top(),
			"votes": res.Votes(), "matched": res.Matched, "total": res.Total,
		})
	})
	return mux
}

// BenchmarkServerThroughputSerialized is the identical workload
// against the seed's single-global-mutex design.
func BenchmarkServerThroughputSerialized(b *testing.B) {
	s := &serializedServer{dict: benchServerDictionary(b), jobs: make(map[string]*core.Stream)}
	b.ReportAllocs()
	runServerThroughput(b, s.handler(), 64)
}

// --- columnar telemetry, window scans and byte ingest ----------------

// benchNodeCSV renders the shared ingest fixture: one node of a
// ten-minute execution with a 50-metric set at 1 Hz, each value a
// deterministic ramp of metric, node and time.
var (
	benchCSVOnce sync.Once
	benchCSV     []byte
)

func benchNodeCSV(b *testing.B) []byte {
	b.Helper()
	benchCSVOnce.Do(func() {
		ns := telemetry.NewNodeSet()
		for i := 0; i < 50; i++ {
			metric := "metric_" + string(rune('a'+i/26)) + string(rune('a'+i%26))
			s := telemetry.NewSeries(metric, 0, 600)
			for tick := 0; tick < 600; tick++ {
				at := time.Duration(tick) * time.Second
				s.Append(at, float64(len(metric)*1000)+at.Seconds()*1.25)
			}
			ns.Put(s)
		}
		var buf bytes.Buffer
		if err := ldms.WriteNodeCSV(&buf, ns, 0); err != nil {
			panic(err)
		}
		benchCSV = buf.Bytes()
	})
	return benchCSV
}

// BenchmarkLDMSIngest measures the byte-oriented CSV ingest path:
// bufio line walking, in-place field splitting, zero-copy float
// parsing, and columnar series construction.
func BenchmarkLDMSIngest(b *testing.B) {
	data := benchNodeCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ldms.ReadNodeCSV(bytes.NewReader(data), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDMSIngestStdCSV is the retained encoding/csv baseline for
// the same input — the allocs/op comparison the acceptance criteria
// pin (see ldms.TestIngestAllocRatio for the enforced >=5x bound).
func BenchmarkLDMSIngestStdCSV(b *testing.B) {
	data := benchNodeCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ldms.ReadNodeCSVStd(bytes.NewReader(data), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWideSeries is a 10-hour 1 Hz series for the window-cost
// benchmark.
var (
	benchWideOnce   sync.Once
	benchWideSeries *telemetry.Series
)

func wideSeries() *telemetry.Series {
	benchWideOnce.Do(func() {
		s := telemetry.NewSeries("m", 0, 36_000)
		for i := 0; i < 36_000; i++ {
			s.Append(time.Duration(i)*time.Second, 1e6+float64(i%97))
		}
		benchWideSeries = s
	})
	return benchWideSeries
}

// BenchmarkWindowMeanNarrow answers the paper's window on a long
// series: a bound computation and a 60-sample double-double scan,
// independent of the series length.
func BenchmarkWindowMeanNarrow(b *testing.B) {
	s := wideSeries()
	w := telemetry.PaperWindow
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.WindowMean(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesSort measures the ingest-then-sort path: fully
// reversed 1 Hz arrival (the worst case for the order tracking)
// followed by the slices.SortStableFunc-based Sort.
func BenchmarkSeriesSort(b *testing.B) {
	const n = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := telemetry.NewSeries("m", 0, n)
		for j := n - 1; j >= 0; j-- {
			s.Append(time.Duration(j)*time.Second, float64(j))
		}
		s.Sort()
	}
}

// --- tsdb: the durable telemetry store ------------------------------

// tsdbBenchStore opens a store in a fresh temp dir. Syncs are disabled
// so the benchmarks measure the engine (encode, CRC, memtable, segment
// build, mmap materialization) rather than the device's fsync latency;
// BenchmarkTSDBCommit measures the fsync path separately.
func tsdbBenchStore(b *testing.B) *tsdb.Store {
	b.Helper()
	st, err := tsdb.OpenOptions(b.TempDir(), tsdb.Options{NoSync: true, FlushBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkTSDBWALAppend measures appending one 64-sample grid run to
// the WAL + memtable — the per-run cost on the server's durable ingest
// path.
func BenchmarkTSDBWALAppend(b *testing.B) {
	st := tsdbBenchStore(b)
	if err := st.Register("j", 1); err != nil {
		b.Fatal(err)
	}
	const run = 64
	offs := make([]time.Duration, run)
	vals := make([]float64, run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < run; k++ {
			offs[k] = time.Duration(i*run+k) * telemetry.DefaultPeriod
			vals[k] = float64(k)
		}
		if err := st.Append("j", "cpu", 0, offs, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(run * 8)
}

// BenchmarkTSDBCommit measures the group-commit fsync that
// acknowledges a batch (one append + one sync per op, real fsyncs).
func BenchmarkTSDBCommit(b *testing.B) {
	st, err := tsdb.OpenOptions(b.TempDir(), tsdb.Options{FlushBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if err := st.Register("j", 1); err != nil {
		b.Fatal(err)
	}
	offs := []time.Duration{0}
	vals := []float64{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offs[0] = time.Duration(i) * telemetry.DefaultPeriod
		if err := st.Append("j", "cpu", 0, offs, vals); err != nil {
			b.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// tsdbBenchNodeSet builds an execution of series×n grid samples.
func tsdbBenchNodeSet(series, n int) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	for si := 0; si < series; si++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(si*7 + i)
		}
		ns.Put(telemetry.NewSeriesFromColumns("m", si, nil, vals))
	}
	return ns
}

// tsdbBenchFinish lands ns in the store as a finished, not yet
// flushed execution through the production write path: Register,
// AppendRuns and Finish.
func tsdbBenchFinish(b *testing.B, st *tsdb.Store, job string, ns *telemetry.NodeSet) {
	b.Helper()
	nodes := ns.Nodes()
	if err := st.Register(job, len(nodes)); err != nil {
		b.Fatal(err)
	}
	err := st.AppendRuns(job, len(nodes), func(i int) (string, int, []time.Duration, []float64) {
		s := ns.Get(nodes[i], "m")
		return s.Metric, s.Node, s.AppendOffsets(nil), s.ValuesView()
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Finish(job, ""); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTSDBSegmentFlush measures flushing one finished execution
// (4 series × 4096 samples) into an immutable segment: columnar
// write, per-block CRCs, footer, mmap open, WAL compaction. Landing
// the execution in the WAL beforehand is untimed.
func BenchmarkTSDBSegmentFlush(b *testing.B) {
	st := tsdbBenchStore(b)
	ns := tsdbBenchNodeSet(4, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tsdbBenchFinish(b, st, fmt.Sprintf("e%d", i), ns)
		b.StartTimer()
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4 * 4096 * 8)
}

// BenchmarkTSDBMmapRead measures materializing a stored execution from
// its mmap'd segment (zero value-column copies) and answering one
// window mean per series.
func BenchmarkTSDBMmapRead(b *testing.B) {
	st := tsdbBenchStore(b)
	tsdbBenchFinish(b, st, "e", tsdbBenchNodeSet(4, 4096))
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	w := telemetry.Window{Start: 60 * time.Second, End: 120 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := st.ExecutionSeries("e")
		if err != nil {
			b.Fatal(err)
		}
		for node := 0; node < 4; node++ {
			if _, err := ns.Get(node, "m").WindowMean(w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(4 * 4096 * 8)
}

// BenchmarkPipelineEndToEnd runs the full data plane: simulate and
// ingest a small seeded grid (cluster sampling -> columnar series),
// summarize it (one scan per series and window), and fit an EFD with
// cross-validated depth selection — the gendataset -> Summarize -> Fit
// pipeline every experiment starts with.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg"}
	cfg.Cluster.Metrics = []string{
		apps.HeadlineMetric,
		"Committed_AS_meminfo",
		"MemTotal_meminfo",
	}
	cfg.Repeats = 4
	cfg.Seed = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Fit(ds, core.DefaultFitConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- client SDK: end-to-end ingest encodings ------------------------

// benchClientRuns builds one ingest batch in columnar form: 2 nodes ×
// 64 in-window samples of the headline metric. The benchmark posts
// the same batch every iteration, re-feeding one warm window — the
// steady-state encode/transfer/decode/feed cost, deliberately without
// stream growth (iter only differentiates the warm-up batch).
func benchClientRuns(iter int) []monitor.RunBatch {
	const perRun = 64
	runs := make([]monitor.Run, 2)
	for node := 0; node < 2; node++ {
		offs := make([]time.Duration, perRun)
		vals := make([]float64, perRun)
		for k := 0; k < perRun; k++ {
			offs[k] = time.Duration(60+(iter*perRun+k)%60) * time.Second
			vals[k] = 2000 + float64(k)
		}
		runs[node] = monitor.Run{Metric: apps.HeadlineMetric, Node: node, Offsets: offs, Values: vals}
	}
	return []monitor.RunBatch{{JobID: "bench-client", Runs: runs}}
}

// runClientIngest drives the typed client against a live HTTP server
// end to end — connection, encoding, server decode, columnar feed —
// and reports total allocations across client and server. The mode
// selects the wire encoding; BenchmarkClientIngestBinary must stay at
// least 2x below BenchmarkClientIngestJSON in allocs/op (pinned by
// TestClientIngestAllocRatio in efd/client).
func runClientIngest(b *testing.B, mode client.BinaryMode) {
	srv := server.NewEngine(monitor.New(benchServerDictionary(b)))
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	c := client.New(ts.URL, client.WithBinaryIngest(mode))
	ctx := context.Background()
	if err := c.Register(ctx, "bench-client", 2); err != nil {
		b.Fatal(err)
	}
	// Warm the path (arena sizing, connection reuse) before measuring.
	if _, err := c.IngestRuns(ctx, benchClientRuns(0)); err != nil {
		b.Fatal(err)
	}
	batches := benchClientRuns(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.IngestRuns(ctx, batches)
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted != 128 {
			b.Fatalf("accepted %d", res.Accepted)
		}
	}
	b.SetBytes(128 * 16)
}

// BenchmarkClientIngestJSON is the row-form JSON ingest path: runs
// are converted to {metric,node,offset_s,value} objects client-side
// and re-grouped into columnar runs server-side.
func BenchmarkClientIngestJSON(b *testing.B) { runClientIngest(b, client.BinaryNever) }

// BenchmarkClientIngestBinary is the binary columnar path
// (application/x-efd-runs): wire-framed columns end to end, decoded
// into pooled scratch, no per-sample parsing anywhere.
func BenchmarkClientIngestBinary(b *testing.B) { runClientIngest(b, client.BinaryAlways) }
