package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/efd/monitor"
	"repro/internal/obs"
)

// obsServer builds an instrumented in-memory server with one
// registered job.
func obsServer(t *testing.T, seed uint64) (*Server, http.Handler, *obs.Registry) {
	t.Helper()
	srv := NewEngine(monitor.New(trainedDict(t)))
	if _, err := srv.Register("job-1", 1); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	srv.EnableObs(reg, seed)
	return srv, srv.Handler(), reg
}

func TestObsTraceHeader(t *testing.T) {
	_, h, _ := obsServer(t, 7)

	// A request without a trace header gets a generated one — the
	// seeded tracer's first ID, since the server keeps no wall-clock
	// global state.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	want := obs.NewTracer(7).NextID()
	if got := rec.Header().Get(obs.TraceHeader); got != want {
		t.Errorf("generated trace = %q, want %q", got, want)
	}

	// A caller-supplied trace ID is propagated verbatim.
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	req.Header.Set(obs.TraceHeader, "cafecafecafecafe")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceHeader); got != "cafecafecafecafe" {
		t.Errorf("propagated trace = %q", got)
	}
}

func TestObsDisabledHandlerUnchanged(t *testing.T) {
	srv := NewEngine(monitor.New(trainedDict(t)))
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if got := rec.Header().Get(obs.TraceHeader); got != "" {
		t.Errorf("uninstrumented handler set %s: %q", obs.TraceHeader, got)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /metrics without EnableObs = %d, want 404", rec.Code)
	}
}

func TestObsMetricsEndpoint(t *testing.T) {
	_, h, _ := obsServer(t, 1)

	// Drive one successful ingest and one 404 through the handler.
	body := `{"job_id":"job-1","samples":[{"metric":"flops","node":0,"offset_s":0,"value":1}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/samples", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/absent", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("lookup of absent job = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeExposition {
		t.Errorf("Content-Type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`efd_http_requests_total{route="/v1/samples",code="2xx"} 1`,
		`efd_http_requests_total{route="/v1/jobs/{id}",code="4xx"} 1`,
		`efd_http_request_seconds_count{route="/v1/samples"} 1`,
		"# TYPE efd_http_request_seconds histogram",
		"efd_engine_samples_accepted_total 1",
		"efd_engine_live_jobs 1",
		"efd_engine_ingest_seconds_count",
		"efd_dict_keys",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

func TestObsSlowRequests(t *testing.T) {
	_, h, _ := obsServer(t, 1)
	body := `{"job_id":"job-1","samples":[{"metric":"flops","node":0,"offset_s":0,"value":1}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/samples", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	trace := rec.Header().Get(obs.TraceHeader)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/slow", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow = %d", rec.Code)
	}
	var out slowResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var ingest *obs.SlowRequest
	for i := range out.Slowest {
		if out.Slowest[i].Route == "/v1/samples" {
			ingest = &out.Slowest[i]
		}
	}
	if ingest == nil {
		t.Fatalf("no /v1/samples entry in slow ring: %+v", out.Slowest)
	}
	if ingest.Trace != trace {
		t.Errorf("slow entry trace = %q, want %q", ingest.Trace, trace)
	}
	if ingest.Status != http.StatusOK || ingest.Method != http.MethodPost {
		t.Errorf("slow entry = %+v", ingest)
	}
	// The ingest pipeline's stages made it into the trace.
	names := make([]string, 0, len(ingest.Stages))
	for _, st := range ingest.Stages {
		names = append(names, st.Name)
	}
	if len(names) != 2 || names[0] != "decode" || names[1] != "engine" {
		t.Errorf("ingest stages = %v, want [decode engine]", names)
	}
}
