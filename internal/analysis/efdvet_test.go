package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestTreeClean is the dogfood gate: every analyzer over every
// package of the real module must produce zero unsuppressed findings.
// A new violation — or a suppression whose finding has since been
// fixed — fails this test (and `make lint`) until addressed.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern expansion is broken", len(pkgs))
	}
	// perfbench is a module of its own, so go build ./... skips it, yet
	// its main is the only root of functions deadcode must keep.
	perfbench := false
	for _, pkg := range pkgs {
		perfbench = perfbench || pkg.Path == "repro/perfbench"
	}
	if !perfbench {
		t.Fatal("repro/perfbench is not among the loaded packages — deadcode would lose its main as a root")
	}
	// One shared Module, exactly as the driver builds it: transitive
	// rules must see cross-package call chains, and the call graph
	// must be constructed once for the whole run.
	mod := analysis.NewModule(pkgs)
	for _, pkg := range pkgs {
		for _, d := range analysis.Suppress(pkg, mod.Run(pkg, analysis.All)) {
			t.Errorf("%s", d)
		}
	}
}
