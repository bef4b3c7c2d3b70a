package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func fixture(name string) string { return filepath.Join("testdata", "src", name) }

// tsdbFixturePrefix is a synthetic import path containing the
// internal/tsdb segment, putting a fixture in scope for the
// storage-layer analyzers.
const tsdbFixturePrefix = "fixture/internal/tsdb/"

func TestVFSSeam(t *testing.T) {
	diags := analysistest.Run(t, fixture("vfsseam"), tsdbFixturePrefix+"vfsseam", analysis.VFSSeam)
	if len(diags) == 0 {
		t.Fatal("vfsseam produced no findings on its fixture")
	}
}

// TestVFSSeamOutOfScope loads the same fixture under a path outside
// internal/tsdb: the seam rules must not fire there — os is fine in,
// say, cmd/efd.
func TestVFSSeamOutOfScope(t *testing.T) {
	_, diags := analysistest.Diagnostics(t, fixture("vfsseam"), "fixture/plain/vfsseam", analysis.VFSSeam)
	if len(diags) != 0 {
		t.Fatalf("vfsseam fired outside internal/tsdb: %v", diags)
	}
}

func TestLockDiscipline(t *testing.T) {
	diags := analysistest.Run(t, fixture("lockdiscipline"), tsdbFixturePrefix+"lockdiscipline", analysis.LockDiscipline)
	if len(diags) == 0 {
		t.Fatal("lockdiscipline produced no findings on its fixture")
	}
}

func TestLockDisciplineOutOfScope(t *testing.T) {
	_, diags := analysistest.Diagnostics(t, fixture("lockdiscipline"), "fixture/plain/lockdiscipline", analysis.LockDiscipline)
	if len(diags) != 0 {
		t.Fatalf("lockdiscipline fired outside internal/tsdb: %v", diags)
	}
}

func TestHotPath(t *testing.T) {
	diags := analysistest.Run(t, fixture("hotpath"), "fixture/hotpath", analysis.HotPath)
	if len(diags) == 0 {
		t.Fatal("hotpath produced no findings on its fixture")
	}
}

func TestErrIs(t *testing.T) {
	diags := analysistest.Run(t, fixture("erris"), "fixture/erris", analysis.ErrIs)
	if len(diags) == 0 {
		t.Fatal("erris produced no findings on its fixture")
	}
}

func TestNoExit(t *testing.T) {
	diags := analysistest.Run(t, fixture("noexit"), "fixture/noexit", analysis.NoExit)
	if len(diags) == 0 {
		t.Fatal("noexit produced no findings on its fixture")
	}
}

// TestNoExitMainExempt: package main owns the process, so the same
// calls that fail a library are silent there.
func TestNoExitMainExempt(t *testing.T) {
	_, diags := analysistest.Diagnostics(t, fixture("noexitmain"), "fixture/noexitmain", analysis.NoExit)
	if len(diags) != 0 {
		t.Fatalf("noexit fired in package main: %v", diags)
	}
}

// TestHotPathChain is the tentpole acceptance fixture: a hot root
// reaching fmt through two unmarked hops — one of them interface
// dispatch — is flagged with the full call chain, a go-statement
// callee inherits the contract, and the //efd:coldpath intermediate
// keeps the parallel chain silent.
func TestHotPathChain(t *testing.T) {
	diags := analysistest.Run(t, fixture("hotpathchain"), "fixture/hotpathchain", analysis.HotPath)
	var chain bool
	for _, d := range diags {
		if strings.Contains(d.Message, "Recognize → describe → sprintRenderer.render") {
			chain = true
		}
		if strings.Contains(d.Message, "Clean") || strings.Contains(d.Message, "coldDescribe") {
			t.Errorf("coldpath escape hatch leaked a finding: %s", d)
		}
	}
	if !chain {
		t.Fatalf("no diagnostic carries the full interface-dispatch chain:\n%v", diags)
	}
}

// TestHotPathHorizon caps the traversal at depth 1: the second hop of
// the Recognize chain now crosses the horizon, and the rule says so
// explicitly instead of silently trusting the unexplored tail.
func TestHotPathHorizon(t *testing.T) {
	old := analysis.HotPathMaxDepth
	analysis.HotPathMaxDepth = 1
	t.Cleanup(func() { analysis.HotPathMaxDepth = old })
	_, diags := analysistest.Diagnostics(t, fixture("hotpathchain"), "fixture/hotpathchain", analysis.HotPath)
	var horizon bool
	for _, d := range diags {
		if strings.Contains(d.Message, "exceeds the analysis horizon (depth 1)") &&
			strings.Contains(d.Message, "describe → ") {
			horizon = true
		}
		if strings.Contains(d.Message, "transitive hot path (Recognize") {
			t.Errorf("chain beyond the horizon was still traversed: %s", d)
		}
	}
	if !horizon {
		t.Fatalf("no horizon diagnostic at depth 1:\n%v", diags)
	}
}

func TestAtomicField(t *testing.T) {
	diags := analysistest.Run(t, fixture("atomicfield"), "fixture/atomicfield", analysis.AtomicField)
	if len(diags) == 0 {
		t.Fatal("atomicfield produced no findings on its fixture")
	}
}

// TestAtomicFieldCleanRegression pins the shapes the real tree relies
// on — the engine's store-state snapshot pointer CAS, the Int32 CAS
// ladder, and the obs kit's CAS-on-float-bits loop — as finding-free.
func TestAtomicFieldCleanRegression(t *testing.T) {
	_, diags := analysistest.Diagnostics(t, fixture("atomicfieldclean"), "fixture/atomicfieldclean", analysis.AtomicField)
	if len(diags) != 0 {
		t.Fatalf("atomicfield flagged the engine/obs atomic patterns: %v", diags)
	}
}

// TestAPILockFixtureGoldens keeps the committed fixture goldens in
// sync with the deterministic renderer: the matching golden is the
// fixture's exact surface, the drifted one records a Sum with an
// extra parameter. UPDATE_API_FIXTURES=1 regenerates both.
func TestAPILockFixtureGoldens(t *testing.T) {
	render := func(importPath string) string {
		loader, err := analysis.NewLoader(fixture("apilock"))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(fixture("apilock"), importPath)
		if err != nil {
			t.Fatal(err)
		}
		return analysis.FormatAPI(pkg.Types)
	}
	drifted := strings.Replace(render("fixture/apilockdrift"),
		"func Sum(a int, b int) int\n", "func Sum(a int, b int, c int) int\n", 1)
	if !strings.Contains(drifted, "func Sum(a int, b int, c int) int\n") {
		t.Fatal("drift seed line missing from the rendered surface")
	}
	for _, g := range []struct{ file, want string }{
		{"fixture_apilock.golden", render("fixture/apilock")},
		{"fixture_apilockdrift.golden", drifted},
	} {
		path := filepath.Join("testdata", "api", g.file)
		if os.Getenv("UPDATE_API_FIXTURES") != "" {
			if err := os.WriteFile(path, []byte(g.want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture golden (regenerate with UPDATE_API_FIXTURES=1 go test): %v", err)
		}
		if string(data) != g.want {
			t.Errorf("%s is stale (regenerate with UPDATE_API_FIXTURES=1 go test)", g.file)
		}
	}
}

// TestAPILock drives the three golden states — matching, drifted,
// missing — by loading one fixture directory under three pinned
// import paths.
func TestAPILock(t *testing.T) {
	saved := analysis.APIPinnedPackages
	analysis.APIPinnedPackages = append(append([]string(nil), saved...),
		"fixture/apilock", "fixture/apilockdrift", "fixture/apilockmissing")
	t.Cleanup(func() { analysis.APIPinnedPackages = saved })

	_, clean := analysistest.Diagnostics(t, fixture("apilock"), "fixture/apilock", analysis.APILock)
	if len(clean) != 0 {
		t.Fatalf("matching golden produced findings: %v", clean)
	}

	_, drift := analysistest.Diagnostics(t, fixture("apilock"), "fixture/apilockdrift", analysis.APILock)
	if len(drift) != 1 ||
		!strings.Contains(drift[0].Message, "drifted from its golden") ||
		!strings.Contains(drift[0].Message, "make api-golden") {
		t.Fatalf("drifted golden: want one drift finding naming make api-golden, got %v", drift)
	}
	if !strings.Contains(drift[0].Message, "Sum") {
		t.Fatalf("drift finding does not pinpoint the changed line: %s", drift[0])
	}

	_, missing := analysistest.Diagnostics(t, fixture("apilock"), "fixture/apilockmissing", analysis.APILock)
	if len(missing) != 1 || !strings.Contains(missing[0].Message, "has no golden") {
		t.Fatalf("missing golden: want one finding, got %v", missing)
	}
}

// TestAPILockUnpinned: packages outside the pinned set have no locked
// surface — the rule must stay silent no matter what they export.
func TestAPILockUnpinned(t *testing.T) {
	_, diags := analysistest.Diagnostics(t, fixture("apilock"), "fixture/unpinned/apilock", analysis.APILock)
	if len(diags) != 0 {
		t.Fatalf("apilock fired on an unpinned package: %v", diags)
	}
}
