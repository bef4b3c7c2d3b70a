package obs

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite exposition golden files")

// goldenRegistry builds a registry with one family of every kind,
// labeled and unlabeled series, and deterministic values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("efd_http_requests_total", `route="/v1/samples",code="2xx"`, "HTTP requests by route and status class").Add(12)
	r.Counter("efd_http_requests_total", `route="/v1/jobs",code="2xx"`, "HTTP requests by route and status class").Add(3)
	r.Counter("efd_http_requests_total", `route="/v1/jobs",code="4xx"`, "HTTP requests by route and status class").Add(1)
	r.CounterFunc("efd_engine_samples_accepted_total", "", "samples accepted since start", func() int64 { return 6000 })
	r.GaugeFunc("efd_engine_live_jobs", "", "currently tracked jobs", func() float64 { return 4 })
	r.GaugeFunc("efd_tsdb_recovery_seconds", "", "duration of the last store recovery", func() float64 { return 0.25 })
	h := r.Histogram("efd_http_request_seconds", `route="/v1/samples"`, "request latency", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 2} {
		h.Observe(v)
	}
	return r
}

// TestExpositionGolden pins the exposition byte-for-byte: family
// order, series order, HELP/TYPE lines, histogram shape, float
// formatting. Regenerate with -update-golden after deliberate format
// changes.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionStableOrder renders twice (with a re-registration in
// between) and requires identical bytes — map iteration order must
// never leak into the exposition.
func TestExpositionStableOrder(t *testing.T) {
	r := goldenRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	r.Counter("efd_http_requests_total", `route="/v1/jobs",code="2xx"`, "HTTP requests by route and status class")
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("exposition not stable across renders:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// parseExposition is a minimal scrape-side parser of text format
// 0.0.4: TYPE lines keyed by family, samples keyed by full series
// name (with label payload).
func parseExposition(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return types, samples
}

// TestScrapeRoundTrip scrapes the HTTP handler and checks the parsed
// families and values against the registry's own state — the
// client-side view must reconstruct what the instruments hold.
func TestScrapeRoundTrip(t *testing.T) {
	r := goldenRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeExposition {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypeExposition)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, buf.String())

	wantTypes := map[string]string{
		"efd_http_requests_total":           "counter",
		"efd_engine_samples_accepted_total": "counter",
		"efd_engine_live_jobs":              "gauge",
		"efd_tsdb_recovery_seconds":         "gauge",
		"efd_http_request_seconds":          "histogram",
	}
	for fam, kind := range wantTypes {
		if types[fam] != kind {
			t.Errorf("family %s type = %q, want %q", fam, types[fam], kind)
		}
	}
	wantSamples := map[string]float64{
		`efd_http_requests_total{route="/v1/jobs",code="2xx"}`:            3,
		`efd_http_requests_total{route="/v1/samples",code="2xx"}`:         12,
		"efd_engine_samples_accepted_total":                               6000,
		"efd_engine_live_jobs":                                            4,
		"efd_tsdb_recovery_seconds":                                       0.25,
		`efd_http_request_seconds_bucket{route="/v1/samples",le="0.001"}`: 1,
		`efd_http_request_seconds_bucket{route="/v1/samples",le="0.01"}`:  3,
		`efd_http_request_seconds_bucket{route="/v1/samples",le="+Inf"}`:  5,
		`efd_http_request_seconds_count{route="/v1/samples"}`:             5,
	}
	for key, want := range wantSamples {
		got, ok := samples[key]
		if !ok {
			t.Errorf("sample %s missing from scrape", key)
			continue
		}
		if got != want {
			t.Errorf("sample %s = %v, want %v", key, got, want)
		}
	}
	// The histogram sum survives the text round trip bit-exactly
	// ('g', -1 formatting).
	if got := samples[`efd_http_request_seconds_sum{route="/v1/samples"}`]; got != 0.0005+0.002+0.002+0.05+2 {
		t.Errorf("histogram sum = %v after round trip", got)
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}
