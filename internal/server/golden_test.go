package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
)

// The golden tests pin the v1 JSON wire protocol: every success-path
// response body, byte for byte, as the pre-refactor server produced it.
// Any change to these bytes is a breaking API change and must show up
// as a conscious golden update (-update-golden), never as an incidental
// diff from refactoring the engine out from behind the handlers.
//
// Error responses are deliberately NOT pinned here: their envelope is
// allowed to evolve (and did, to {"error":{"code","message"}}).

var updateGolden = flag.Bool("update-golden", false, "rewrite golden HTTP transcripts")

// goldenRecorder replays a scripted request sequence and renders each
// response as one transcript section.
type goldenRecorder struct {
	t    *testing.T
	base string
	buf  bytes.Buffer
	step int
}

func (g *goldenRecorder) do(method, path string, body any) {
	g.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			g.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		g.t.Fatal(err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.t.Fatal(err)
	}
	g.step++
	fmt.Fprintf(&g.buf, "### %d %s %s\n%d\n", g.step, method, path, resp.StatusCode)
	if allow := resp.Header.Get("Allow"); allow != "" {
		fmt.Fprintf(&g.buf, "Allow: %s\n", allow)
	}
	g.buf.Write(raw)
	if !bytes.HasSuffix(raw, []byte("\n")) {
		g.buf.WriteByte('\n')
	}
}

func (g *goldenRecorder) check(name string) {
	g.t.Helper()
	path := filepath.Join("testdata", name)
	got := g.buf.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			g.t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			g.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		g.t.Fatalf("missing golden %s (run with -update-golden to record): %v", path, err)
	}
	if got != string(want) {
		g.t.Errorf("HTTP transcript diverged from %s:\n%s", path, diffFirst(string(want), got))
	}
}

// diffFirst points at the first differing line, enough to debug a
// transcript without a full diff tool.
func diffFirst(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

// goldenSamples builds the deterministic ingest body: seconds
// [0,125] × 2 nodes at a fixed level.
func goldenSamples(level float64, step int) []wireSample {
	var out []wireSample
	for sec := 0; sec <= 125; sec += step {
		for node := 0; node < 2; node++ {
			out = append(out, wireSample{Metric: apps.HeadlineMetric, Node: node, OffsetS: float64(sec), Value: level})
		}
	}
	return out
}

func TestGoldenV1InMemory(t *testing.T) {
	_, ts := newTestServer(t)
	g := &goldenRecorder{t: t, base: ts.URL}

	g.do(http.MethodGet, "/healthz", nil)
	g.do(http.MethodPost, "/v1/jobs", registerRequest{JobID: "g1", Nodes: 2})
	g.do(http.MethodPost, "/v1/samples", sampleBatch{JobID: "g1", Samples: goldenSamples(6010, 1)})
	g.do(http.MethodGet, "/v1/jobs/g1", nil)
	g.do(http.MethodPost, "/v1/jobs", registerRequest{JobID: "g2", Nodes: 2})
	g.do(http.MethodPost, "/v1/samples", map[string]any{"batches": []sampleBatch{
		{JobID: "g2", Samples: goldenSamples(7000, 5)},
		{JobID: "ghost", Samples: goldenSamples(1, 25)},
	}})
	g.do(http.MethodGet, "/v1/jobs/g2", nil)
	g.do(http.MethodGet, "/v1/jobs?limit=10", nil)
	g.do(http.MethodGet, "/v1/dictionary", nil)
	g.do(http.MethodGet, "/v1/metrics", nil)
	g.do(http.MethodPost, "/v1/jobs/g1/label", labelRequest{App: "lammps", Input: "X"})
	g.do(http.MethodDelete, "/v1/jobs/g2", nil)
	g.do(http.MethodGet, "/v1/metrics", nil)
	g.do(http.MethodGet, "/v1/health", nil)

	g.check("golden_v1_memory.txt")
}

func TestGoldenV1Storage(t *testing.T) {
	_, ts, _ := storageFixture(t, t.TempDir())
	g := &goldenRecorder{t: t, base: ts.URL}

	g.do(http.MethodPost, "/v1/jobs", registerRequest{JobID: "s1", Nodes: 2})
	g.do(http.MethodPost, "/v1/samples", sampleBatch{JobID: "s1", Samples: goldenSamples(6010, 1)})
	g.do(http.MethodGet, "/v1/jobs/s1/series", nil)
	g.do(http.MethodPost, "/v1/jobs/s1/label", labelRequest{App: "ft", Input: "X"})
	g.do(http.MethodGet, "/v1/executions", nil)
	g.do(http.MethodPost, "/v1/executions/s1/recognize", nil)
	g.do(http.MethodGet, "/v1/metrics", nil)
	g.do(http.MethodGet, "/v1/health", nil)

	g.check("golden_v1_storage.txt")
}

// goldenRoutePaths are the v1 routes (with a job ID that is never
// registered, so no step changes server state) followed by unknown
// subroutes of the two ID-carrying subtrees. /v1/jobs/a%2Fb is what
// Client.Result("a/b") sends.
var goldenRoutePaths = []string{
	"/healthz", "/v1/health", "/v1/dictionary", "/v1/metrics",
	"/v1/jobs", "/v1/samples",
	"/v1/jobs/x", "/v1/jobs/x/label", "/v1/jobs/x/series",
	"/v1/executions", "/v1/executions/x/recognize",
	"/v1/jobs/", "/v1/jobs/a/b", "/v1/jobs/a/b/label", "/v1/jobs/a%2Fb",
	"/v1/executions/", "/v1/executions/x", "/v1/executions/x/y/recognize",
}

// TestGoldenV1Routes pins the route matrix: every path above under
// every method, with empty bodies, in memory and storage mode — status,
// Allow header and body, including the 404/405/501 envelopes the other
// transcripts leave out.
func TestGoldenV1Routes(t *testing.T) {
	_, mem := newTestServer(t)
	_, sto, _ := storageFixture(t, t.TempDir())
	g := &goldenRecorder{t: t}
	for _, mode := range []struct{ name, base string }{{"memory", mem.URL}, {"storage", sto.URL}} {
		fmt.Fprintf(&g.buf, "## %s\n", mode.name)
		g.base = mode.base
		for _, path := range goldenRoutePaths {
			for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete} {
				g.do(method, path, nil)
			}
		}
	}
	g.check("golden_v1_routes.txt")
}
