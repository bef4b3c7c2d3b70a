package experiments

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// perFoldFit is the reference fold loop: every outer fold fits its
// training subset alone, core.Fit(ds.Subset(train), cfg), rendering
// that set's keys again, and Classify recognizes the test subset with
// the fitted dictionary (core.ClassifyWorkers). The oracle holds the
// shared rendering and the trainer's grid to it.
type perFoldFit struct {
	ds  *dataset.Dataset
	cfg core.FitConfig
}

func (p perFoldFit) Classify(train, test []int) ([]eval.Pair, core.FitReport, error) {
	d, rep, err := core.Fit(p.ds.Subset(train), p.cfg)
	if err != nil {
		return nil, core.FitReport{}, err
	}
	return core.ClassifyWorkers(d, p.ds.Subset(test), p.cfg.Workers), rep, nil
}

func perFold(ds *dataset.Dataset, cfg core.FitConfig) (fitter, error) {
	return perFoldFit{ds, cfg}, nil
}

// TestProtocolsMatchPerFoldOracle runs every protocol and ablation that
// fits per outer fold twice, fitting from one core.Trainer per call and
// through perFold, and requires deeply equal results. It runs with the
// headline metric alone and with two metrics independent and joint, at
// one worker and at GOMAXPROCS, where the folds of a call fit
// concurrently from one Trainer (make check runs it under -race).
func TestProtocolsMatchPerFoldOracle(t *testing.T) {
	runs := []struct {
		name string
		run  func(h *Harness, fitFor fitterFor) (any, error)
	}{
		{"NormalFold", func(h *Harness, f fitterFor) (any, error) { return h.normalFold(f) }},
		{"SoftInput", func(h *Harness, f fitterFor) (any, error) { return h.softInput(f) }},
		{"SoftUnknown", func(h *Harness, f fitterFor) (any, error) { return h.softUnknown(f) }},
		{"HardInput", func(h *Harness, f fitterFor) (any, error) { return h.hardInput(f) }},
		{"HardUnknown", func(h *Harness, f fitterFor) (any, error) { return h.hardUnknown(f) }},
		{"MetricSweep", func(h *Harness, f fitterFor) (any, error) { return h.metricSweep(nil, f) }},
		{"IntervalAblation", func(h *Harness, f fitterFor) (any, error) { return h.intervalAblation(nil, f) }},
		{"VotingAblation", func(h *Harness, f fitterFor) (any, error) {
			all, single, err := h.votingAblation(f)
			return [2]float64{all, single}, err
		}},
	}
	two := []string{apps.HeadlineMetric, "Committed_AS_meminfo"}
	configs := []struct {
		name    string
		metrics []string
		joint   bool
	}{
		{"headline", []string{apps.HeadlineMetric}, false},
		{"two metrics", two, false},
		{"two metrics joint", two, true},
	}
	for _, c := range configs {
		for _, workers := range []int{1, 0} {
			h := testHarness(t)
			h.Fit.Metrics, h.Fit.Joint = c.metrics, c.joint
			h.Workers, h.Fit.Workers = workers, workers
			for _, r := range runs {
				want, err := r.run(h, perFold)
				if err != nil {
					t.Fatalf("%s workers %d %s: per-fold reference: %v", c.name, workers, r.name, err)
				}
				got, err := r.run(h, trainer)
				if err != nil {
					t.Fatalf("%s workers %d %s: %v", c.name, workers, r.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers %d %s: got %+v, per-fold reference %+v", c.name, workers, r.name, got, want)
				}
			}
		}
	}
}

// TestNormalFoldAllocs pins the allocations of one NormalFold on testDS,
// harness and Fit at one worker, as TestFitAllocs pins a Fit. When every
// outer fold's core.Fit rendered its own training set's keys, a
// NormalFold allocated 10,835 times; one core.Trainer per call, whose
// folds fit from its shared rendering, made it 8,364. Recognizing each
// outer fold through the trainer's grid (core.Trainer.Classify), with
// no per-fold Dictionary or Recognizer, and sizing dataset.KFold's
// slices once made it 1,671. Handing the trainer each fold's rows, with
// no Subset per fold and no copy of the key index per grid, and
// stratifying every split by a counting sort over label numbers made
// it 956. Cutting every execution's raw window means from one slab per
// trainer makes it 606.
func TestNormalFoldAllocs(t *testing.T) {
	h := testHarness(t)
	h.Workers, h.Fit.Workers = 1, 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := h.NormalFold(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 606.0; allocs > limit {
		t.Errorf("NormalFold allocates %.0f times, want at most %.0f (does each fold render its keys again, or build a dictionary?)", allocs, limit)
	}
}

// TestVotingAblationAllocs pins the allocations of one VotingAblation
// on testDS, harness and Fit at one worker. When every outer fold built
// its dictionary and recognized each test execution twice through a
// Recognizer, once through a single-node source, a call allocated
// 7,068 times. One trainer over the executions and their node-0 views,
// whose folds recognize both through the trainer's grid, makes it 980.
func TestVotingAblationAllocs(t *testing.T) {
	h := testHarness(t)
	h.Workers, h.Fit.Workers = 1, 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := h.VotingAblation(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 980.0; allocs > limit {
		t.Errorf("VotingAblation allocates %.0f times, want at most %.0f (does each fold build a dictionary again?)", allocs, limit)
	}
}

// TestMeanOfSumsInKeyOrder pins meanOf to a sum in key order. The
// values cancel, so a sum in map iteration order changes in the last
// bits with the order Go happens to iterate in, and so would every
// per-dimension protocol score.
func TestMeanOfSumsInKeyOrder(t *testing.T) {
	m := map[string]float64{"a": 1e16, "b": 1, "c": -1e16, "d": 1, "e": 0.25}
	want := 0.0
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		want += m[k]
	}
	want /= float64(len(m))
	for i := range 100 {
		if got := meanOf(m); got != want {
			t.Fatalf("call %d: meanOf = %v, want %v, the sum in key order", i, got, want)
		}
	}
}
