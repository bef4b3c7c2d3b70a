package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/dataset"
)

// goldenConfig is the small seeded grid the byte-identity goldens are
// rendered from: two applications, three metrics, enough repeats for
// three folds. Small enough to regenerate in well under a second,
// structured enough to exercise every protocol.
func goldenConfig() dataset.GenConfig {
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg"}
	cfg.Cluster.Metrics = []string{
		"nr_mapped_vmstat",
		"Committed_AS_meminfo",
		"MemTotal_meminfo",
	}
	cfg.Repeats = 4
	cfg.Seed = 7
	return cfg
}

// renderGoldenReport produces the full experiment report for the golden
// grid: dataset composition, all five protocols, the per-metric sweep,
// and the pooled normal-fold classification report. Everything in it is
// derived from rounded fingerprint keys and integer counts, so the
// bytes must survive any refactor of the telemetry/extraction layers.
func renderGoldenReport(t *testing.T) []byte {
	t.Helper()
	ds, err := dataset.Generate(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(ds)
	h.Folds = 3
	var buf bytes.Buffer
	RenderTable2(&buf, ds)
	scores, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	RenderFigure2(&buf, scores)
	rows, err := h.MetricSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	RenderTable3(&buf, rows, 0)
	normal, err := h.NormalFold()
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	fmt.Fprint(&buf, normal.Report.String())
	return buf.Bytes()
}

// TestGoldenReport pins the rendered experiment report byte-for-byte.
// The golden file was captured before the columnar telemetry refactor
// (PR 3), so a pass here means the refactored ingest/extraction path
// reproduces the original reports exactly. Regenerate (only when an
// intentional behaviour change demands it) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenReport
func TestGoldenReport(t *testing.T) {
	checkGolden(t, "golden_report.txt", renderGoldenReport(t))
}

// renderAblations renders the six ablations cmd/experiments -ablation
// runs, on testDS with 5 folds and the headline metric: every score in
// full ('g', the shortest form that reads back to the same float64),
// every map in key order. The combinations are explicit, because the
// default ones name metrics testDS lacks.
func renderAblations(t *testing.T) []byte {
	t.Helper()
	h := testHarness(t)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var buf bytes.Buffer
	depths, err := h.DepthAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "depth")
	for _, d := range slices.Sorted(maps.Keys(depths)) {
		fmt.Fprintf(&buf, "  %d %s\n", d, num(depths[d]))
	}
	intervals, err := h.IntervalAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "interval")
	for _, w := range sortedKeys(intervals) {
		fmt.Fprintf(&buf, "  %s %s\n", w, num(intervals[w]))
	}
	all, single, err := h.VotingAblation()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "voting\n  all nodes %s\n  single node %s\n", num(all), num(single))
	combos, err := h.ComboAblation(map[string][]string{
		"headline":     {apps.HeadlineMetric},
		"headline+mem": {apps.HeadlineMetric, "Committed_AS_meminfo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "combo")
	for _, r := range combos {
		fmt.Fprintf(&buf, "  %s %v joint=%v normal fold %s hard unknown %s\n",
			r.Name, r.Metrics, r.Joint, num(r.NormalFold), num(r.HardUnknown))
	}
	growth, err := h.DictionaryGrowth(nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "growth")
	for _, d := range slices.Sorted(maps.Keys(growth)) {
		fmt.Fprintf(&buf, "  %d %+v\n", d, growth[d])
	}
	latency, err := h.LatencyAblation()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "latency")
	for _, w := range sortedKeys(latency) {
		fmt.Fprintf(&buf, "  %s %s\n", w, num(latency[w]))
	}
	return buf.Bytes()
}

// TestAblationsGolden pins every ablation score byte-for-byte, so a
// change to how an ablation trains or recognizes must reproduce its
// numbers exactly. Regenerate (only when an intentional behaviour
// change demands it) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestAblationsGolden
func TestAblationsGolden(t *testing.T) {
	checkGolden(t, "golden_ablations.txt", renderAblations(t))
}

// checkGolden compares got with the golden file testdata/name, or
// rewrites the file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden:\n%s", name, firstDiff(got, want))
	}
}

// firstDiff renders the first line where two outputs diverge.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}
