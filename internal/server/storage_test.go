package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/tsdb"
)

// storageFixture starts a storage-backed server over a dictionary with
// one known application at level 6000.
func storageFixture(t *testing.T, dir string) (*Server, *httptest.Server, *tsdb.Store) {
	t.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(fixedSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	st, err := tsdb.OpenOptions(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEngine(monitor.New(d))
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return srv, ts, st
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// feedFlat streams a flat headline signal for both nodes of a job
// through the HTTP API, seconds [from, to].
func feedFlat(t *testing.T, base, jobID string, from, to int, level float64) {
	t.Helper()
	var samples []map[string]any
	for sec := from; sec <= to; sec++ {
		for node := 0; node < 2; node++ {
			samples = append(samples, map[string]any{
				"metric": apps.HeadlineMetric, "node": node,
				"offset_s": float64(sec), "value": level,
			})
		}
	}
	if code := doJSON(t, "POST", base+"/v1/samples", map[string]any{"job_id": jobID, "samples": samples}, nil); code != http.StatusOK {
		t.Fatalf("samples: %d", code)
	}
}

// TestStorageBackedLifecycle walks the full storage-backed flow:
// register → ingest (durable) → label → stored execution → series
// endpoint → online learning → re-recognition of the historical job.
func TestStorageBackedLifecycle(t *testing.T) {
	srv, ts, st := storageFixture(t, t.TempDir())
	base := ts.URL

	if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": "hist1", "nodes": 2}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	feedFlat(t, base, "hist1", 0, 125, 9000) // unknown application level
	// Live series are served from the memtable.
	var sr struct {
		JobID  string `json:"job_id"`
		Source string `json:"source"`
		Series []struct {
			Metric   string    `json:"metric"`
			Node     int       `json:"node"`
			Count    int       `json:"count"`
			OffsetsS []float64 `json:"offsets_s"`
			Values   []float64 `json:"values"`
		} `json:"series"`
	}
	if code := doJSON(t, "GET", base+"/v1/jobs/hist1/series", nil, &sr); code != http.StatusOK {
		t.Fatalf("live series: %d", code)
	}
	if sr.Source != "live" || len(sr.Series) != 2 {
		t.Fatalf("live series response: source %q, %d series", sr.Source, len(sr.Series))
	}
	if sr.Series[0].Count != 126 || len(sr.Series[0].OffsetsS) != 0 {
		t.Errorf("grid series: count %d (want 126), offsets_s %d (want omitted)", sr.Series[0].Count, len(sr.Series[0].OffsetsS))
	}

	// Recognition says unknown; the operator labels it — it becomes a
	// stored execution.
	var state monitor.State
	if code := doJSON(t, "GET", base+"/v1/jobs/hist1", nil, &state); code != http.StatusOK || state.Top != core.Unknown {
		t.Fatalf("pre-label state: %d %+v", code, state)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs/hist1/label", map[string]string{"app": "lammps", "input": "X"}, nil); code != http.StatusOK {
		t.Fatalf("label: %d", code)
	}

	var execs struct {
		Total      int             `json:"total"`
		Executions []tsdb.ExecInfo `json:"executions"`
	}
	if code := doJSON(t, "GET", base+"/v1/executions", nil, &execs); code != http.StatusOK {
		t.Fatalf("executions: %d", code)
	}
	if execs.Total != 1 || execs.Executions[0].ID != "hist1" || execs.Executions[0].Label != "lammps_X" {
		t.Fatalf("executions listing: %+v", execs)
	}

	// The stored series endpoint now answers from the store.
	if code := doJSON(t, "GET", base+"/v1/jobs/hist1/series", nil, &sr); code != http.StatusOK || sr.Source != "stored" {
		t.Fatalf("stored series: %d source %q", code, sr.Source)
	}

	// Historical re-recognition: the dictionary learned lammps at 9000
	// *after* hist1 finished; re-running recognition over the stored
	// execution now identifies it.
	var rr monitor.State
	if code := doJSON(t, "POST", base+"/v1/executions/hist1/recognize", nil, &rr); code != http.StatusOK {
		t.Fatalf("re-recognize: %d", code)
	}
	if rr.Top != "lammps" {
		t.Errorf("re-recognition after learning: top %q, want lammps", rr.Top)
	}

	// A second job at the original level still recognizes normally.
	if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": "known", "nodes": 2}, nil); code != http.StatusCreated {
		t.Fatal("register known")
	}
	feedFlat(t, base, "known", 0, 125, 6000)
	if code := doJSON(t, "GET", base+"/v1/jobs/known", nil, &state); code != http.StatusOK || state.Top != "ft" {
		t.Fatalf("known job: %d top %q", code, state.Top)
	}

	// Metrics expose the store section.
	var met monitor.Stats
	if code := doJSON(t, "GET", base+"/v1/metrics", nil, &met); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if met.Store == nil {
		t.Fatal("metrics missing store section")
	}
	if met.Store.WALBytes == 0 && met.Store.Executions == 0 {
		t.Errorf("store metrics look empty: %+v", met.Store)
	}
	if met.Store.Commits == 0 {
		t.Errorf("no commits counted: %+v", met.Store)
	}

	// Unknown IDs 404 on both storage routes.
	if code := doJSON(t, "GET", base+"/v1/jobs/nope/series", nil, nil); code != http.StatusNotFound {
		t.Errorf("series of unknown job: %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/executions/nope/recognize", nil, nil); code != http.StatusNotFound {
		t.Errorf("re-recognize unknown: %d", code)
	}
	_ = srv
	_ = st
}

// TestStorageRestartRecovery restarts the server stack over the same
// data dir and requires recognition state identical to an
// uninterrupted in-memory server fed the same samples.
func TestStorageRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts, st := storageFixture(t, dir)
	base := ts.URL
	if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": "j", "nodes": 2}, nil); code != http.StatusCreated {
		t.Fatal("register")
	}
	// Feed only a partial window, so recognition is provisional — the
	// harder state to recover.
	feedFlat(t, base, "j", 0, 90, 6000)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: an uninterrupted in-memory server fed identically.
	dRef, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	dRef.Learn(fixedSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	refSrv := httptest.NewServer(NewEngine(monitor.New(dRef)).Handler())
	defer refSrv.Close()
	if code := doJSON(t, "POST", refSrv.URL+"/v1/jobs", map[string]any{"job_id": "j", "nodes": 2}, nil); code != http.StatusCreated {
		t.Fatal("register ref")
	}
	feedFlat(t, refSrv.URL, "j", 0, 90, 6000)

	// Restart over the same directory.
	_, ts2, _ := storageFixture(t, dir)

	readState := func(base string) string {
		resp, err := http.Get(base + "/v1/jobs/j")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job state: %d %s", resp.StatusCode, b)
		}
		return string(b)
	}
	got, want := readState(ts2.URL), readState(refSrv.URL)
	if got != want {
		t.Errorf("recovered state differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// The recovered job keeps working: complete the window and label.
	feedFlat(t, ts2.URL, "j", 91, 125, 6000)
	var state monitor.State
	if code := doJSON(t, "GET", ts2.URL+"/v1/jobs/j", nil, &state); code != http.StatusOK || state.Top != "ft" {
		t.Fatalf("completed recovered job: %d %+v", code, state)
	}
	var met monitor.Stats
	if code := doJSON(t, "GET", ts2.URL+"/v1/metrics", nil, &met); code != http.StatusOK || met.Store == nil {
		t.Fatal("metrics after restart")
	}
	if met.Store.RecoveredJobs != 1 {
		t.Errorf("recovered_jobs = %d, want 1", met.Store.RecoveredJobs)
	}
	if met.Store.ReplayedRecords == 0 {
		t.Errorf("replayed_records = 0 after restart")
	}
}

// TestStorageRoutesWithoutStore pins the 501 contract in in-memory
// mode.
func TestStorageRoutesWithoutStore(t *testing.T) {
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewEngine(monitor.New(d)).Handler())
	defer ts.Close()
	for _, route := range []struct{ method, path string }{
		{"GET", "/v1/jobs/x/series"},
		{"GET", "/v1/executions"},
		{"POST", "/v1/executions/x/recognize"},
	} {
		if code := doJSON(t, route.method, ts.URL+route.path, nil, nil); code != http.StatusNotImplemented {
			t.Errorf("%s %s without store: %d, want 501", route.method, route.path, code)
		}
	}
	var met monitor.Stats
	if code := doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &met); code != http.StatusOK {
		t.Fatal("metrics")
	}
	if met.Store != nil {
		t.Errorf("in-memory metrics grew a store section: %+v", met.Store)
	}
}

// TestStorageConcurrentIngest exercises the storage-backed ingest path
// under parallel feeders and a concurrent flush, then verifies the
// store totals match what was acknowledged.
func TestStorageConcurrentIngest(t *testing.T) {
	_, ts, st := storageFixture(t, t.TempDir())
	base := ts.URL
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": fmt.Sprintf("c%d", i), "nodes": 2}, nil); code != http.StatusCreated {
			t.Fatal("register")
		}
	}
	done := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			defer func() { done <- nil }()
			for chunk := 0; chunk < 5; chunk++ {
				var samples []map[string]any
				for sec := chunk * 25; sec < (chunk+1)*25; sec++ {
					for node := 0; node < 2; node++ {
						samples = append(samples, map[string]any{
							"metric": apps.HeadlineMetric, "node": node,
							"offset_s": float64(sec), "value": 6000.0,
						})
					}
				}
				b, _ := json.Marshal(map[string]any{"job_id": fmt.Sprintf("c%d", i), "samples": samples})
				resp, err := http.Post(base+"/v1/samples", "application/json", bytes.NewReader(b))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("samples: %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.LiveJobs != jobs {
		t.Errorf("store live jobs = %d, want %d", stats.LiveJobs, jobs)
	}
	total := int64(0)
	for _, lj := range st.Live() {
		total += lj.Samples
	}
	if want := int64(jobs * 5 * 25 * 2); total != want {
		t.Errorf("store samples = %d, want %d", total, want)
	}
}
