package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// trainedDict builds a dictionary with ft at 6000 and mg at 7000 across
// two nodes.
func trainedDict(t *testing.T) *core.Dictionary {
	t.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	learn := func(app string, level float64) {
		src := fixedSource{nodes: 2, level: level}
		d.Learn(src, apps.Label{App: app, Input: apps.InputX})
	}
	learn("ft", 6000)
	learn("mg", 7000)
	return d
}

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

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewEngine(monitor.New(trainedDict(t)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decode(t, resp)
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decode(t, resp)
}

func decode(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

// feed streams a constant level into a registered job over the window.
func feed(t *testing.T, url, jobID string, level float64, upToS int) {
	t.Helper()
	var samples []wireSample
	for sec := 0; sec <= upToS; sec++ {
		for node := 0; node < 2; node++ {
			samples = append(samples, wireSample{
				Metric: apps.HeadlineMetric, Node: node,
				OffsetS: float64(sec), Value: level,
			})
		}
	}
	resp, body := post(t, url+"/v1/samples", sampleBatch{JobID: jobID, Samples: samples})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples rejected: %v %v", resp.Status, body)
	}
}

func TestHealthAndDictionary(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health: %v %v", resp.Status, body)
	}
	resp, body = get(t, ts.URL+"/v1/dictionary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dictionary: %v", resp.Status)
	}
	if body["keys"].(float64) != 4 { // 2 apps × 2 nodes
		t.Errorf("keys = %v", body["keys"])
	}
	if body["depth"].(float64) != 2 {
		t.Errorf("depth = %v", body["depth"])
	}
}

func TestRecognitionFlow(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "j1", Nodes: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v", resp.Status)
	}
	// Early query: nothing recognized yet.
	resp, body := get(t, ts.URL+"/v1/jobs/j1")
	if resp.StatusCode != http.StatusOK || body["recognized"].(bool) {
		t.Fatalf("fresh job state: %v %v", resp.Status, body)
	}
	feed(t, ts.URL, "j1", 6010, 125)
	resp, body = get(t, ts.URL+"/v1/jobs/j1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %v", resp.Status)
	}
	if body["top"] != "ft" || !body["complete"].(bool) {
		t.Fatalf("recognition state: %v", body)
	}
	if body["confidence"].(float64) != 1 {
		t.Errorf("confidence = %v", body["confidence"])
	}
}

func TestOnlineLearning(t *testing.T) {
	s, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "new", Nodes: 2})
	feed(t, ts.URL, "new", 9000, 125) // a level no known app uses

	// Labelling before completion is rejected — make a second job to
	// check that path first.
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "early", Nodes: 2})
	resp, _ := post(t, ts.URL+"/v1/jobs/early/label", labelRequest{App: "x", Input: "X"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early label: %v", resp.Status)
	}

	resp, body := post(t, ts.URL+"/v1/jobs/new/label", labelRequest{App: "lammps", Input: "X"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label: %v %v", resp.Status, body)
	}
	// The dictionary now recognizes the new application.
	var top string
	s.Dictionary().Read(func(d *core.Dictionary) {
		top = d.Recognize(fixedSource{nodes: 2, level: 9000}).Top()
	})
	if top != "lammps" {
		t.Fatalf("online-learned app not recognized: got %q", top)
	}
	// The job was consumed.
	resp, _ = get(t, ts.URL+"/v1/jobs/new")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("labelled job should be gone: %v", resp.Status)
	}
}

func TestRegistrationErrors(t *testing.T) {
	// MaxJobs must be set before serving, so use a dedicated server.
	s := NewEngine(monitor.New(trainedDict(t)))
	s.MaxJobs = 2
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "", Nodes: 2}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty id: %v", resp.Status)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "a", Nodes: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero nodes: %v", resp.Status)
	}
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "dup", Nodes: 1})
	if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "dup", Nodes: 1}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate: %v", resp.Status)
	}
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "fill", Nodes: 1})
	if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "over", Nodes: 1}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over capacity: %v", resp.Status)
	}
	// Deleting a job frees its slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/fill", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "again", Nodes: 1}); resp.StatusCode != http.StatusCreated {
		t.Errorf("register after delete: %v", resp.Status)
	}
}

func TestJobIDValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []string{"a/b", "x/label", "/", strings.Repeat("x", monitor.MaxJobIDLen+1), ".", ".."}
	for _, id := range bad {
		if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: id, Nodes: 1}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("id %q: %v, want 400", id, resp.Status)
		}
	}
	good := []string{"ok.job-1", "label", strings.Repeat("y", monitor.MaxJobIDLen)}
	for _, id := range good {
		if resp, _ := post(t, ts.URL+"/v1/jobs", registerRequest{JobID: id, Nodes: 1}); resp.StatusCode != http.StatusCreated {
			t.Errorf("id %q: %v, want 201", id, resp.Status)
		}
	}
}

func TestRouteEdgeCases(t *testing.T) {
	_, ts := newTestServer(t)
	// A job literally named "label" is reachable: only the "/label"
	// suffix is special.
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "label", Nodes: 1})
	if resp, _ := get(t, ts.URL+"/v1/jobs/label"); resp.StatusCode != http.StatusOK {
		t.Errorf("job named label: %v", resp.Status)
	}
	// Slash-bearing paths are unknown routes, not job lookups. (A
	// path like /v1/jobs//label is first cleaned by ServeMux into
	// /v1/jobs/label — a plain job lookup — so it is not in this
	// list.)
	for _, p := range []string{"/v1/jobs/a/b", "/v1/jobs/a/b/label", "/v1/jobs/a/label/x"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+p, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// ServeMux may clean some of these paths with a 301 before our
		// handler runs; anything but a 2xx is acceptable.
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s: %v, want non-2xx", p, resp.Status)
		}
	}
	// POST to /v1/jobs/{id}/label with a slash-bearing id is a 404.
	if resp, _ := post(t, ts.URL+"/v1/jobs/a/b/label", labelRequest{App: "x", Input: "X"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("label with slash id: %v, want 404", resp.Status)
	}
}

func TestNonFiniteSamplesRejected(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "j", Nodes: 2})
	// Raw bodies: JSON itself cannot carry NaN/Inf literals (those die
	// in decode with a 400), so the validator's job is the values that
	// DO parse — like offsets too large for a time.Duration, or
	// non-finite values smuggled in through a future wire format. Both
	// layers must answer 400 without feeding anything.
	valid := fmt.Sprintf(`{"metric":%q,"node":0,"offset_s":60,"value":6000}`, apps.HeadlineMetric)
	cases := []string{
		// Caught by validateSamples after a clean decode.
		fmt.Sprintf(`{"metric":%q,"node":0,"offset_s":1e300,"value":1}`, apps.HeadlineMetric),
		fmt.Sprintf(`{"metric":%q,"node":0,"offset_s":-1e300,"value":1}`, apps.HeadlineMetric),
		// Rejected at the JSON layer: NaN/Infinity are not JSON.
		fmt.Sprintf(`{"metric":%q,"node":0,"offset_s":NaN,"value":1}`, apps.HeadlineMetric),
		fmt.Sprintf(`{"metric":%q,"node":0,"offset_s":60,"value":Infinity}`, apps.HeadlineMetric),
	}
	for i, smp := range cases {
		body := fmt.Sprintf(`{"job_id":"j","samples":[%s,%s]}`, valid, smp)
		resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %v, want 400", i, resp.Status)
		}
	}
	// The validator itself rejects non-finite floats directly.
	for i, smp := range []wireSample{
		{Metric: apps.HeadlineMetric, OffsetS: math.NaN(), Value: 1},
		{Metric: apps.HeadlineMetric, OffsetS: math.Inf(1), Value: 1},
		{Metric: apps.HeadlineMetric, OffsetS: 60, Value: math.NaN()},
		{Metric: apps.HeadlineMetric, OffsetS: 60, Value: math.Inf(-1)},
	} {
		if err := monitor.ValidateSamples("j", []wireSample{smp}); err == nil {
			t.Errorf("validator case %d: accepted non-finite sample", i)
		}
	}
	// Nothing was fed: the whole batch is rejected before feeding.
	_, body := get(t, ts.URL+"/v1/jobs?limit=10")
	jobs := body["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("jobs listed = %d", len(jobs))
	}
	if n := jobs[0].(map[string]any)["samples"].(float64); n != 0 {
		t.Errorf("samples fed despite rejection: %v", n)
	}
}

func TestJobListingPagination(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/jobs", registerRequest{JobID: fmt.Sprintf("job%d", i), Nodes: 2})
	}
	feed(t, ts.URL, "job3", 6000, 125)
	resp, body := get(t, ts.URL+"/v1/jobs?limit=2&offset=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %v", resp.Status)
	}
	if body["total"].(float64) != 5 {
		t.Errorf("total = %v", body["total"])
	}
	jobs := body["jobs"].([]any)
	if len(jobs) != 2 {
		t.Fatalf("page size = %d", len(jobs))
	}
	j2 := jobs[0].(map[string]any)
	j3 := jobs[1].(map[string]any)
	if j2["job_id"] != "job2" || j3["job_id"] != "job3" {
		t.Errorf("page = %v, %v (IDs are sorted)", j2["job_id"], j3["job_id"])
	}
	if !j3["complete"].(bool) || j3["samples"].(float64) == 0 {
		t.Errorf("fed job state: %v", j3)
	}
	if j2["complete"].(bool) {
		t.Errorf("unfed job complete: %v", j2)
	}
	// Off-the-end offset yields an empty page, not an error.
	if _, body := get(t, ts.URL+"/v1/jobs?offset=99"); len(body["jobs"].([]any)) != 0 {
		t.Errorf("off-end page: %v", body["jobs"])
	}
	// Bad parameters are 400s.
	for _, q := range []string{"?limit=0", "?limit=1001", "?limit=x", "?offset=-1", "?offset=x"} {
		if resp, _ := get(t, ts.URL+"/v1/jobs"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %v, want 400", q, resp.Status)
		}
	}
}

func TestBatchIngest(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "a", Nodes: 2})
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "b", Nodes: 2})
	mk := func(level float64) []wireSample {
		var out []wireSample
		for sec := 0; sec <= 125; sec += 5 {
			for node := 0; node < 2; node++ {
				out = append(out, wireSample{Metric: apps.HeadlineMetric, Node: node, OffsetS: float64(sec), Value: level})
			}
		}
		return out
	}
	resp, body := post(t, ts.URL+"/v1/samples", map[string]any{"batches": []sampleBatch{
		{JobID: "a", Samples: mk(6000)},
		{JobID: "b", Samples: mk(7000)},
		{JobID: "ghost", Samples: mk(1)},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest: %v %v", resp.Status, body)
	}
	if body["accepted"].(float64) != float64(2*len(mk(0))) {
		t.Errorf("accepted = %v", body["accepted"])
	}
	unknown := body["unknown"].([]any)
	if len(unknown) != 1 || unknown[0] != "ghost" {
		t.Errorf("unknown = %v", unknown)
	}
	if _, body := get(t, ts.URL+"/v1/jobs/a"); body["top"] != "ft" {
		t.Errorf("job a: %v", body["top"])
	}
	if _, body := get(t, ts.URL+"/v1/jobs/b"); body["top"] != "mg" {
		t.Errorf("job b: %v", body["top"])
	}
	// All-unknown multi-batch is a 404; an empty request is a 400.
	if resp, _ := post(t, ts.URL+"/v1/samples", map[string]any{"batches": []sampleBatch{{JobID: "ghost", Samples: mk(1)}}}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("all-unknown batch: %v", resp.Status)
	}
	if resp, _ := post(t, ts.URL+"/v1/samples", map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingest: %v", resp.Status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "m1", Nodes: 2})
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "m2", Nodes: 2})
	feed(t, ts.URL, "m1", 6000, 125)
	get(t, ts.URL+"/v1/jobs/m1")
	resp, body := get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v", resp.Status)
	}
	if body["live_jobs"].(float64) != 2 || body["registered_total"].(float64) != 2 {
		t.Errorf("job counters: %v", body)
	}
	if body["shards"].(float64) != monitor.NumShards {
		t.Errorf("shards = %v", body["shards"])
	}
	occ := body["shard_occupancy"].([]any)
	total := 0.0
	for _, o := range occ {
		total += o.(float64)
	}
	if len(occ) != monitor.NumShards || total != 2 {
		t.Errorf("occupancy = %v (len %d)", total, len(occ))
	}
	if body["samples_accepted_total"].(float64) == 0 || body["recognitions_total"].(float64) != 1 {
		t.Errorf("traffic counters: %v", body)
	}
}

func TestSampleAndQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, _ := post(t, ts.URL+"/v1/samples", sampleBatch{JobID: "ghost"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("samples for unknown job: %v", resp.Status)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %v", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/ghost", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown: %v", resp.Status)
	}
	// Bad JSON bodies.
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %v", r.Status)
	}
}

func TestDeleteJob(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "tmp", Nodes: 1})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/tmp", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	if r, _ := get(t, ts.URL+"/v1/jobs/tmp"); r.StatusCode != http.StatusNotFound {
		t.Errorf("job survived deletion: %v", r.Status)
	}
}

func TestMethodGuards(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/dictionary"},
		{http.MethodGet, "/v1/samples"},
		{http.MethodPut, "/v1/jobs"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(nil))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %v", c.method, c.path, resp.Status)
		}
	}
}

func TestConcurrentFeeding(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 8; i++ {
		post(t, ts.URL+"/v1/jobs", registerRequest{JobID: fmt.Sprintf("job%d", i), Nodes: 2})
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			id := fmt.Sprintf("job%d", i)
			level := 6000.0
			if i%2 == 1 {
				level = 7000
			}
			var samples []wireSample
			for sec := 0; sec <= 125; sec++ {
				for node := 0; node < 2; node++ {
					samples = append(samples, wireSample{
						Metric: apps.HeadlineMetric, Node: node,
						OffsetS: float64(sec), Value: level,
					})
				}
			}
			b, _ := json.Marshal(sampleBatch{JobID: id, Samples: samples})
			resp, err := http.Post(ts.URL+"/v1/samples", "application/json", bytes.NewReader(b))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		want := "ft"
		if i%2 == 1 {
			want = "mg"
		}
		_, body := get(t, ts.URL+fmt.Sprintf("/v1/jobs/job%d", i))
		if body["top"] != want {
			t.Errorf("job%d recognized as %v, want %s", i, body["top"], want)
		}
	}
}
