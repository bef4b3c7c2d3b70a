package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule lays out a throwaway module so the driver's exit codes
// can be exercised against trees in known states.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module fixturedriver\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runIn(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	t.Chdir(dir)
	out, err := os.CreateTemp(t.TempDir(), "efdvet-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestCleanTreeExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go":        "package a\n\n// Add adds.\nfunc Add(x, y int) int { return x + y }\n",
		"cmd/m/main.go": "package main\n\nimport \"fixturedriver/a\"\n\nfunc main() { println(a.Add(1, 2)) }\n",
	})
	code, out := runIn(t, dir)
	if code != exitClean {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitClean, out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"os\"\n\n// Quit exits from a library.\nfunc Quit() { os.Exit(1) }\n",
	})
	code, out := runIn(t, dir)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitFindings, out)
	}
	if !strings.Contains(out, "[noexit]") {
		t.Fatalf("output missing the noexit finding:\n%s", out)
	}
}

// TestLoadFailureExitTwo: a tree that does not typecheck means the
// analyzers never ran — a distinct exit code and message, so CI logs
// answer "dirty or broken?" directly.
func TestLoadFailureExitTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nfunc f() int { return undefined }\n",
	})
	code, out := runIn(t, dir)
	if code != exitLoadFail {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitLoadFail, out)
	}
	if !strings.Contains(out, "analyzers did not run") {
		t.Fatalf("load-failure message missing:\n%s", out)
	}
}

// TestBadPatternExitTwo: a pattern matching nothing is a load
// failure, not a clean run.
func TestBadPatternExitTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// Add adds.\nfunc Add(x, y int) int { return x + y }\n",
	})
	code, out := runIn(t, dir, "./nosuchdir")
	if code != exitLoadFail {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitLoadFail, out)
	}
}

// TestFindingsSortedAcrossPackages pins the one canonical output
// order: (file, line, col, rule) on the printed paths, globally
// across packages — not per-package emission order — so CI diffs of
// lint output are stable run-to-run.
func TestFindingsSortedAcrossPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"aa/aa.go": "package aa\n\nimport \"os\"\n\n// Quit exits from a library.\nfunc Quit() { os.Exit(1) }\n\n// Die panics on an error value.\nfunc Die(err error) { panic(err) }\n",
		"zb/zb.go": "package zb\n\nimport \"os\"\n\n// Quit exits from a library.\nfunc Quit() { os.Exit(1) }\n",
	})
	code, out := runIn(t, dir)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitFindings, out)
	}
	var findings []string
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "efdvet:") {
			findings = append(findings, line)
		}
	}
	if len(findings) != 3 {
		t.Fatalf("want 3 findings, got %d:\n%s", len(findings), out)
	}
	for i := 1; i < len(findings); i++ {
		if findings[i-1] >= findings[i] {
			t.Fatalf("findings out of (file, line, col, rule) order:\n%s", out)
		}
	}
	if !strings.HasPrefix(findings[0], filepath.Join("aa", "aa.go")) ||
		!strings.HasPrefix(findings[2], filepath.Join("zb", "zb.go")) {
		t.Fatalf("findings not grouped by file:\n%s", out)
	}
}

// TestCallGraphCostReported: text mode surfaces the shared call-graph
// construction cost on stderr, so analysis-cost regressions show up
// in make lint logs.
func TestCallGraphCostReported(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// Add adds.\nfunc Add(x, y int) int { return x + y }\n",
	})
	_, out := runIn(t, dir)
	if !strings.Contains(out, "efdvet: callgraph:") || !strings.Contains(out, "edges, built in") {
		t.Fatalf("text mode missing the callgraph build report:\n%s", out)
	}
}

func TestListIncludesInterproceduralRules(t *testing.T) {
	dir := writeModule(t, nil)
	code, out := runIn(t, dir, "-list")
	if code != exitClean {
		t.Fatalf("-list exit = %d\n%s", code, out)
	}
	for _, rule := range []string{"hotpath", "atomicfield", "apilock", "deadcode"} {
		if !strings.Contains(out, rule) {
			t.Errorf("-list missing %q:\n%s", rule, out)
		}
	}
}

// TestAPIGoldenRoundTrip is the apilock acceptance loop: a pinned
// package with no golden fails lint; -api-golden writes it; lint goes
// clean; an exported-signature edit fails lint with a drift finding;
// regenerating makes it clean again.
func TestAPIGoldenRoundTrip(t *testing.T) {
	saved := analysis.APIPinnedPackages
	analysis.APIPinnedPackages = []string{"a"}
	t.Cleanup(func() { analysis.APIPinnedPackages = saved })
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\n// Add adds.\nfunc Add(x, y int) int { return x + y }\n",
	})

	code, out := runIn(t, dir)
	if code != exitFindings || !strings.Contains(out, "[apilock]") || !strings.Contains(out, "has no golden") {
		t.Fatalf("missing golden: exit = %d, want a [apilock] no-golden finding\n%s", code, out)
	}

	code, out = runIn(t, dir, "-api-golden")
	if code != exitClean || !strings.Contains(out, "wrote internal/analysis/testdata/api/a.golden") {
		t.Fatalf("-api-golden: exit = %d\n%s", code, out)
	}

	if code, out = runIn(t, dir); code != exitClean {
		t.Fatalf("after regeneration: exit = %d, want clean\n%s", code, out)
	}

	src := "package a\n\n// Add adds three.\nfunc Add(x, y, z int) int { return x + y + z }\n"
	if err := os.WriteFile(filepath.Join(dir, "a", "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runIn(t, dir)
	if code != exitFindings || !strings.Contains(out, "drifted from its golden") {
		t.Fatalf("after signature edit: exit = %d, want a drift finding\n%s", code, out)
	}

	if code, out = runIn(t, dir, "-api-golden"); code != exitClean {
		t.Fatalf("second -api-golden: exit = %d\n%s", code, out)
	}
	if code, out = runIn(t, dir); code != exitClean {
		t.Fatalf("after second regeneration: exit = %d, want clean\n%s", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"os\"\n\n// Quit exits from a library.\nfunc Quit() { os.Exit(1) }\n",
	})
	code, out := runIn(t, dir, "-json")
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d\noutput:\n%s", code, exitFindings, out)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Rule != "noexit" {
		t.Fatalf("diags = %+v, want one noexit finding", diags)
	}
}
