package client

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// fixedSource trains dictionary entries at a constant level.
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

func trainedDict(t testing.TB) *core.Dictionary {
	t.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(fixedSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	d.Learn(fixedSource{nodes: 2, level: 7000}, apps.Label{App: "mg", Input: apps.InputX})
	return d
}

func newFixture(t testing.TB, opts ...Option) (*server.Server, *Client) {
	t.Helper()
	srv := server.New(trainedDict(t))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, New(ts.URL, opts...)
}

// flatSamples builds seconds [0,125] × nodes at a fixed level.
func flatSamples(level float64, nodes int) []monitor.Sample {
	var out []monitor.Sample
	for sec := 0; sec <= 125; sec++ {
		for node := 0; node < nodes; node++ {
			out = append(out, monitor.Sample{Metric: apps.HeadlineMetric, Node: node, OffsetS: float64(sec), Value: level})
		}
	}
	return out
}

// flatRuns is flatSamples in columnar form: one run per node.
func flatRuns(level float64, nodes int) []monitor.Run {
	var out []monitor.Run
	for node := 0; node < nodes; node++ {
		run := monitor.Run{Metric: apps.HeadlineMetric, Node: node}
		for sec := 0; sec <= 125; sec++ {
			run.Offsets = append(run.Offsets, time.Duration(sec)*time.Second)
			run.Values = append(run.Values, level)
		}
		out = append(out, run)
	}
	return out
}

// TestEndpointRoundTrips drives every v1 endpoint through the typed
// client against a real server.
func TestEndpointRoundTrips(t *testing.T) {
	_, c := newFixture(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	di, err := c.Dictionary(ctx)
	if err != nil || di.Keys != 4 || di.Depth != 2 {
		t.Fatalf("dictionary: %+v, %v", di, err)
	}
	if err := c.Register(ctx, "j1", 2); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Duplicate registration surfaces the typed conflict.
	var apiErr *APIError
	if err := c.Register(ctx, "j1", 2); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != "conflict" {
		t.Fatalf("duplicate register: %v", err)
	}
	n, err := c.Ingest(ctx, "j1", flatSamples(6010, 2))
	if err != nil || n != 252 {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	st, err := c.Result(ctx, "j1")
	if err != nil || st.Top != "ft" || !st.Complete {
		t.Fatalf("result: %+v, %v", st, err)
	}
	listing, err := c.Jobs(ctx, 0, 10)
	if err != nil || listing.Total != 1 || listing.Jobs[0].JobID != "j1" {
		t.Fatalf("jobs: %+v, %v", listing, err)
	}
	met, err := c.Metrics(ctx)
	if err != nil || met.SamplesAccepted != 252 || met.Registered != 1 {
		t.Fatalf("metrics: %+v, %v", met, err)
	}
	learned, err := c.Label(ctx, "j1", "lammps", "X")
	if err != nil || learned != "lammps_X" {
		t.Fatalf("label: %q, %v", learned, err)
	}
	// The labelled job is gone; a typed not_found comes back.
	if _, err := c.Result(ctx, "j1"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Fatalf("result after label: %v", err)
	}
	if err := c.Register(ctx, "j2", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "j2"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Storage endpoints answer 501 without a store.
	if _, err := c.Executions(ctx); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotImplemented {
		t.Fatalf("executions without store: %v", err)
	}
}

// TestStorageEndpoints exercises series/executions/recognize against
// a storage-backed engine.
func TestStorageEndpoints(t *testing.T) {
	eng := monitor.New(trainedDict(t))
	if _, err := eng.OpenStore(t.TempDir(), monitor.StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.CloseStore() })
	ts := httptest.NewServer(server.NewEngine(eng).Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	if err := c.Register(ctx, "s1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "s1", flatSamples(6010, 2)); err != nil {
		t.Fatal(err)
	}
	dump, err := c.Series(ctx, "s1")
	if err != nil || dump.Source != "live" || len(dump.Series) != 2 || dump.Series[0].Count != 126 {
		t.Fatalf("series: %+v, %v", dump, err)
	}
	if _, err := c.Label(ctx, "s1", "ft", "X"); err != nil {
		t.Fatal(err)
	}
	execs, err := c.Executions(ctx)
	if err != nil || len(execs) != 1 || execs[0].ID != "s1" || execs[0].Label != "ft_X" {
		t.Fatalf("executions: %+v, %v", execs, err)
	}
	st, err := c.RecognizeExecution(ctx, "s1")
	if err != nil || st.Top != "ft" {
		t.Fatalf("recognize stored: %+v, %v", st, err)
	}
}

// TestRetryOn503 pins the retry/backoff behavior: idempotent GETs
// retry through transient 503s, POSTs never do.
func TestRetryOn503(t *testing.T) {
	var gets, posts atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			if gets.Add(1) <= 2 {
				http.Error(w, `{"error":{"code":"internal","message":"try later"}}`, http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		posts.Add(1)
		http.Error(w, `{"error":{"code":"internal","message":"nope"}}`, http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithRetry(3, time.Millisecond))

	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health should have retried through 503s: %v", err)
	}
	if got := gets.Load(); got != 3 {
		t.Errorf("GET attempts = %d, want 3", got)
	}
	// A POST is not idempotent: exactly one attempt, error surfaced.
	var apiErr *APIError
	if err := c.Register(context.Background(), "x", 1); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register: %v", err)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("POST attempts = %d, want 1 (no retry)", got)
	}
}

// TestRetryDroppedConnection drops the TCP connection mid-response
// twice; the idempotent call must recover.
func TestRetryDroppedConnection(t *testing.T) {
	var calls atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // slam the door: the client sees a connection error
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithRetry(3, time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health should have survived dropped connections: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	// Exhausted retries surface the connection error.
	calls.Store(-100)
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("expected error once retries exhaust")
	}
}

// TestRetryRespectsContext: a cancelled context stops the retry loop.
func TestRetryRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithRetry(10, 50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if err == nil {
		t.Fatal("expected error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored context: ran %v", elapsed)
	}
}

// TestBinaryVersusJSONBitIdentical feeds identical telemetry to two
// identically trained servers — one over JSON, one over the binary
// columnar encoding — and requires bit-identical recognition state.
func TestBinaryVersusJSONBitIdentical(t *testing.T) {
	// Awkward values: many mantissa bits, values JSON prints in
	// scientific notation, negatives, subnormal-adjacent magnitudes.
	values := []float64{6010.123456789012, 6009.999999999999, 6010.5e-3 * 1e3, 6011.000000000001}
	mkRuns := func() []monitor.RunBatch {
		var runs []monitor.Run
		for node := 0; node < 2; node++ {
			run := monitor.Run{Metric: apps.HeadlineMetric, Node: node}
			for sec := 0; sec <= 125; sec++ {
				run.Offsets = append(run.Offsets, time.Duration(sec)*time.Second)
				run.Values = append(run.Values, values[sec%len(values)])
			}
			runs = append(runs, run)
		}
		return []monitor.RunBatch{{JobID: "bit", Runs: runs}}
	}

	state := make([]string, 2)
	for i, mode := range []BinaryMode{BinaryNever, BinaryAlways} {
		_, c := newFixture(t, WithBinaryIngest(mode))
		ctx := context.Background()
		if err := c.Register(ctx, "bit", 2); err != nil {
			t.Fatal(err)
		}
		res, err := c.IngestRuns(ctx, mkRuns())
		if err != nil {
			t.Fatalf("mode %d ingest: %v", mode, err)
		}
		if res.Accepted != 252 {
			t.Fatalf("mode %d accepted %d", mode, res.Accepted)
		}
		st, err := c.Result(ctx, "bit")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(st)
		state[i] = string(raw)
	}
	if state[0] != state[1] {
		t.Errorf("JSON and binary ingest diverged:\n json:   %s\n binary: %s", state[0], state[1])
	}
}

// TestBinaryGenuine400DoesNotFallBack: the server's enveloped 400 for
// a binary payload (NaN value) surfaces, and the client keeps sending
// binary afterwards.
func TestBinaryGenuine400DoesNotFallBack(t *testing.T) {
	_, c := newFixture(t)
	ctx := context.Background()
	if err := c.Register(ctx, "nan", 1); err != nil {
		t.Fatal(err)
	}
	bad := []monitor.RunBatch{{JobID: "nan", Runs: []monitor.Run{{
		Metric: "m", Node: 0,
		Offsets: []time.Duration{0},
		Values:  []float64{nan()},
	}}}}
	var apiErr *APIError
	if _, err := c.IngestRuns(ctx, bad); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != "bad_request" {
		t.Fatalf("NaN ingest: %v", err)
	}
	// The client still prefers binary for valid payloads afterwards.
	good := []monitor.RunBatch{{JobID: "nan", Runs: []monitor.Run{{
		Metric: apps.HeadlineMetric, Node: 0,
		Offsets: []time.Duration{0},
		Values:  []float64{1},
	}}}}
	if res, err := c.IngestRuns(ctx, good); err != nil || res.Accepted != 1 {
		t.Fatalf("binary after genuine 400: %+v, %v", res, err)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// recordingHandler captures every ingest request body for the
// BatchWriter determinism tests.
type recordingHandler struct {
	mu       sync.Mutex
	requests [][]monitor.Batch
	types    []string
	fail     atomic.Bool
}

func (h *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.fail.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"injected"}}`))
		return
	}
	var req struct {
		Batches []monitor.Batch `json:"batches"`
	}
	json.NewDecoder(r.Body).Decode(&req)
	h.mu.Lock()
	h.requests = append(h.requests, req.Batches)
	h.types = append(h.types, r.Header.Get("Content-Type"))
	h.mu.Unlock()
	json.NewEncoder(w).Encode(map[string]int{"accepted": 1})
}

func (h *recordingHandler) snapshot() [][]monitor.Batch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([][]monitor.Batch(nil), h.requests...)
}

// TestBatchWriterFlushBySize: exactly one request the moment the
// size threshold is hit, containing exactly the buffered samples
// grouped by job.
func TestBatchWriterFlushBySize(t *testing.T) {
	h := &recordingHandler{}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	w := c.NewBatchWriter(BatchWriterConfig{FlushSamples: 4, FlushInterval: -1})

	for i := 0; i < 3; i++ {
		if err := w.Add("a", monitor.Sample{Metric: "m", OffsetS: float64(i), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Add("b", monitor.Sample{Metric: "m", OffsetS: 0, Value: 2}); err != nil {
		t.Fatal(err)
	}
	// The 4th Add crossed the threshold: one request, deterministic
	// content. MaxInFlight default 1 plus a synchronous Flush barrier
	// makes the assertion race-free.
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	reqs := h.snapshot()
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1 (flush-by-size only)", len(reqs))
	}
	if len(reqs[0]) != 2 || reqs[0][0].JobID != "a" || len(reqs[0][0].Samples) != 3 || reqs[0][1].JobID != "b" || len(reqs[0][1].Samples) != 1 {
		t.Fatalf("batch content: %+v", reqs[0])
	}
	// Below-threshold adds only go out on Flush.
	w.Add("a", monitor.Sample{Metric: "m", OffsetS: 9, Value: 3})
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if reqs := h.snapshot(); len(reqs) != 2 || len(reqs[1][0].Samples) != 1 {
		t.Fatalf("after explicit flush: %+v", reqs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("a", monitor.Sample{}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("add after close: %v", err)
	}
}

// TestBatchWriterFlushByInterval: a below-threshold buffer goes out
// once the interval elapses, without further Adds.
func TestBatchWriterFlushByInterval(t *testing.T) {
	h := &recordingHandler{}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	w := c.NewBatchWriter(BatchWriterConfig{FlushSamples: 1000, FlushInterval: 10 * time.Millisecond})
	t.Cleanup(func() { w.Close() })

	if err := w.Add("tick", monitor.Sample{Metric: "m", OffsetS: 1, Value: 5}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reqs := h.snapshot(); len(reqs) >= 1 {
			if reqs[0][0].JobID != "tick" || len(reqs[0][0].Samples) != 1 {
				t.Fatalf("interval flush content: %+v", reqs[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchWriterErrorSurfaced: asynchronous flush errors reach both
// the OnError hook and the next Flush/Close.
func TestBatchWriterErrorSurfaced(t *testing.T) {
	h := &recordingHandler{}
	h.fail.Store(true)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	var hookErrs atomic.Int32
	w := c.NewBatchWriter(BatchWriterConfig{
		FlushSamples: 1, FlushInterval: -1,
		OnError: func(error) { hookErrs.Add(1) },
	})
	if err := w.Add("a", monitor.Sample{Metric: "m", Value: 1}); err != nil {
		t.Fatal(err) // Add itself never fails on flush errors
	}
	err := w.Close()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("close error: %v", err)
	}
	if hookErrs.Load() == 0 {
		t.Error("OnError hook never fired")
	}
}

// TestBatchWriterConcurrentFlush: concurrent Flush/Add/Close at
// MaxInFlight > 1 must not deadlock (regression: two racing barriers
// once hoarded semaphore slots from each other forever).
func TestBatchWriterConcurrentFlush(t *testing.T) {
	h := &recordingHandler{}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	w := c.NewBatchWriter(BatchWriterConfig{FlushSamples: 2, FlushInterval: time.Millisecond, MaxInFlight: 2})

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					w.Add("job", monitor.Sample{Metric: "m", OffsetS: float64(i), Value: float64(g)})
					if i%5 == 0 {
						w.Flush(context.Background())
					}
				}
			}(g)
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("BatchWriter deadlocked under concurrent Flush")
	}
}

// TestBatchWriterColumnar: columnar mode sends binary runs and the
// resulting server state matches a JSON writer byte for byte.
func TestBatchWriterColumnar(t *testing.T) {
	state := make([]string, 2)
	for i, columnar := range []bool{false, true} {
		_, c := newFixture(t)
		ctx := context.Background()
		if err := c.Register(ctx, "cw", 2); err != nil {
			t.Fatal(err)
		}
		w := c.NewBatchWriter(BatchWriterConfig{FlushSamples: 64, FlushInterval: -1, Columnar: columnar})
		for _, s := range flatSamples(7003.25, 2) {
			if err := w.Add("cw", s); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := c.Result(ctx, "cw")
		if err != nil {
			t.Fatal(err)
		}
		if st.Top != "mg" || !st.Complete {
			t.Fatalf("columnar=%v state: %+v", columnar, st)
		}
		raw, _ := json.Marshal(st)
		state[i] = string(raw)
		met, err := c.Metrics(ctx)
		if err != nil || met.SamplesAccepted != 252 {
			t.Fatalf("columnar=%v metrics: %+v, %v", columnar, met, err)
		}
	}
	if state[0] != state[1] {
		t.Errorf("columnar writer diverged from JSON writer:\n json:     %s\n columnar: %s", state[0], state[1])
	}
}

// TestRowOffsetsValidatedBeforeRegroup: rows whose offset has no
// nanosecond Duration (NaN, ±Inf, beyond ~292 years) fail locally
// with monitor.ErrInvalid on both row paths — IngestBatches and a
// columnar BatchWriter — and the server is never fed.
func TestRowOffsetsValidatedBeforeRegroup(t *testing.T) {
	for _, offset := range []float64{nan(), math.Inf(1), math.Inf(-1), 1e12} {
		for _, columnar := range []bool{false, true} {
			srv, c := newFixture(t)
			ctx := context.Background()
			if err := c.Register(ctx, "off", 1); err != nil {
				t.Fatal(err)
			}
			rows := []monitor.Sample{
				{Metric: apps.HeadlineMetric, OffsetS: 0, Value: 1},
				{Metric: apps.HeadlineMetric, OffsetS: offset, Value: 2},
				{Metric: apps.HeadlineMetric, OffsetS: 2, Value: 3},
			}
			var err error
			if columnar {
				w := c.NewBatchWriter(BatchWriterConfig{FlushInterval: -1, Columnar: true})
				for _, s := range rows {
					if aerr := w.Add("off", s); aerr != nil {
						t.Fatal(aerr)
					}
				}
				err = w.Flush(ctx)
				w.Close()
			} else {
				_, err = c.IngestBatches(ctx, []monitor.Batch{{JobID: "off", Samples: rows}})
			}
			if !errors.Is(err, monitor.ErrInvalid) {
				t.Errorf("offset %v columnar=%v: err = %v, want monitor.ErrInvalid", offset, columnar, err)
			}
			if st := srv.Stats(); st.SampleBatches != 0 || st.SamplesAccepted != 0 {
				t.Errorf("offset %v columnar=%v: server saw %d batches, accepted %d samples; want none sent",
					offset, columnar, st.SampleBatches, st.SamplesAccepted)
			}
		}
	}
}

// TestMultiJobIngestUnknown: the multi-job form reports unknown jobs
// while feeding the rest.
func TestMultiJobIngestUnknown(t *testing.T) {
	_, c := newFixture(t)
	ctx := context.Background()
	if err := c.Register(ctx, "known", 2); err != nil {
		t.Fatal(err)
	}
	res, err := c.IngestBatches(ctx, []monitor.Batch{
		{JobID: "known", Samples: flatSamples(6000, 2)[:10]},
		{JobID: "ghost", Samples: flatSamples(1, 1)[:2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 10 || len(res.Unknown) != 1 || res.Unknown[0] != "ghost" {
		t.Fatalf("partial ingest: %+v", res)
	}
	// All-unknown is a typed 404.
	var apiErr *APIError
	if _, err := c.IngestBatches(ctx, []monitor.Batch{{JobID: "ghost", Samples: flatSamples(1, 1)[:2]}}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("all-unknown: %v", err)
	}
}

// TestOversizedBodyRejected pins the MaxBytesReader satellite through
// the client: a single-job Ingest over the server's limit answers 413
// with the payload_too_large code. The batch forms no longer surface
// the 413 — they bisect and re-send (TestIngestSplitsOn413).
func TestOversizedBodyRejected(t *testing.T) {
	srv, c := newFixture(t)
	srv.MaxBodyBytes = 512
	ctx := context.Background()
	if err := c.Register(ctx, "big", 2); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.Ingest(ctx, "big", flatSamples(6000, 2)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge || apiErr.Code != "payload_too_large" {
		t.Fatalf("oversized JSON: %v", err)
	}
}

// TestAllowHeaderOn405 pins the satellite: method rejections carry
// the Allow header and the envelope code.
func TestAllowHeaderOn405(t *testing.T) {
	srv, _ := newFixture(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/v1/dictionary", "GET"},
		{http.MethodGet, "/v1/samples", "POST"},
		{http.MethodPut, "/v1/jobs", "GET, POST"},
		{http.MethodPost, "/v1/metrics", "GET"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if body.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: code = %q", tc.method, tc.path, body.Error.Code)
		}
	}
}

// TestErrorEnvelopeEverywhere sweeps representative failures of every
// endpoint and requires the uniform envelope.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	srv, c := newFixture(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	c.Register(ctx, "env", 1)

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"bad register", http.MethodPost, "/v1/jobs", `{"job_id":"","nodes":0}`, 400, "bad_request"},
		{"bad json", http.MethodPost, "/v1/jobs", `{`, 400, "bad_request"},
		{"unknown result", http.MethodGet, "/v1/jobs/ghost", "", 404, "not_found"},
		{"unknown delete", http.MethodDelete, "/v1/jobs/ghost", "", 404, "not_found"},
		{"early label", http.MethodPost, "/v1/jobs/env/label", `{"app":"ft","input":"X"}`, 409, "conflict"},
		{"empty ingest", http.MethodPost, "/v1/samples", `{}`, 400, "bad_request"},
		{"unknown ingest", http.MethodPost, "/v1/samples", `{"job_id":"ghost","samples":[]}`, 404, "not_found"},
		{"bad listing", http.MethodGet, "/v1/jobs?limit=-1", "", 400, "bad_request"},
		{"no store series", http.MethodGet, "/v1/jobs/env/series", "", 501, "unimplemented"},
		{"no store executions", http.MethodGet, "/v1/executions", "", 501, "unimplemented"},
		{"no store recognize", http.MethodPost, "/v1/executions/x/recognize", "", 501, "unimplemented"},
		{"bad route", http.MethodGet, "/v1/jobs/a/b/c", "", 404, "not_found"},
	}
	for _, tc := range cases {
		var req *http.Request
		if tc.body != "" {
			req, _ = http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req, _ = http.NewRequest(tc.method, ts.URL+tc.path, nil)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		if decodeErr != nil || body.Error.Code != tc.code || body.Error.Message == "" {
			t.Errorf("%s: envelope {code:%q, message:%q} (decode err %v), want code %q",
				tc.name, body.Error.Code, body.Error.Message, decodeErr, tc.code)
		}
	}
}
