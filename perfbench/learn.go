package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
)

// minFScore is the paper's recognition bar the learn workload guards.
const minFScore = 0.95

// learnWorkload: each op is one experiments.Harness.NormalFold over the
// seeded paper grid of all 11 apps — 5 outer folds of core.Fit (depth
// CV), core.ClassifyWorkers and eval.Evaluate — back to back. It is the
// paper's learn → lookup pipeline, touching dataset, core, stats and
// eval and none of client, server, wire or tsdb. It guards the F-score
// and shows whether a core recognition change also moves poll.
type learnWorkload struct {
	h    *experiments.Harness
	genS float64
}

func (w *learnWorkload) setup(seed int64, _ string, _ *tracer) error {
	start := time.Now()
	ds, err := paperGrid(seed)
	if err != nil {
		return err
	}
	w.genS = time.Since(start).Seconds()
	w.h = experiments.NewHarness(ds)
	w.h.Seed = seed
	w.h.Fit = fitConfig(seed)
	// One fold at a time on one goroutine: the op then measures the
	// pipeline's work. Run two-wide on the 2-vCPU host, five runs of one
	// seed spread 15% (IQR over median) on how the folds shared the
	// CPUs, against 4% one-wide. Scores do not depend on it.
	w.h.Workers, w.h.Fit.Workers = 1, 1
	return nil
}

func (w *learnWorkload) run(d time.Duration) (*phase, error) {
	ph := &phase{workUnit: "folds", opWork: 1}
	ph.setLayer("dataset.generate_s", w.genS)
	ph.timed(w.h.Seed, func(start time.Time) {
		deadline := start.Add(d)
		for ph.attempted == 0 || time.Now().Before(deadline) {
			t0 := time.Now()
			s, err := w.h.NormalFold()
			t1 := time.Now()
			ph.attempted++
			switch {
			case err != nil:
				ph.fail(err)
				return
			case ph.attempted == 1:
				ph.fScore = s.EFD
			case s.EFD != ph.fScore:
				ph.fail(fmt.Errorf("NormalFold scored %v, earlier %v on the same seed", s.EFD, ph.fScore))
			}
			ph.primary.add(t1, t1.Sub(t0))
		}
	})
	ph.loopOps = ph.attempted
	ph.heapMB = liveHeapMB()
	if ph.fScore < minFScore {
		ph.fail(fmt.Errorf("f_score %.4f below %.2f", ph.fScore, minFScore))
	}
	return ph, nil
}

// layers times the steps of one NormalFold by direct calls: core.Fit
// per fold, core.ClassifyWorkers per test execution, eval.Evaluate
// over the pooled pairs — and requires the same score.
func (w *learnWorkload) layers(ph *phase, _ string) error {
	folds, err := w.h.DS.KFold(w.h.Folds, w.h.Seed)
	if err != nil {
		return err
	}
	var fit, classify layerAgg
	var pairs []eval.Pair
	for _, f := range folds {
		train, test := w.h.DS.Subset(f.Train), w.h.DS.Subset(f.Test)
		start := time.Now()
		d, _, err := core.Fit(train, w.h.Fit)
		if err != nil {
			return err
		}
		fit.add(time.Since(start), 1)
		start = time.Now()
		pairs = append(pairs, core.ClassifyWorkers(d, test, w.h.Fit.Workers)...)
		classify.add(time.Since(start), float64(test.Len()))
	}
	start := time.Now()
	rep, err := eval.Evaluate(pairs)
	if err != nil {
		return err
	}
	evalNS := time.Since(start)
	if rep.MacroF1 != ph.fScore {
		ph.fail(fmt.Errorf("direct-call folds scored %v, NormalFold %v", rep.MacroF1, ph.fScore))
	}
	ph.setLayer("core.fit_ms", fit.per(time.Millisecond))
	ph.setLayer("core.classify_us", classify.per(time.Microsecond))
	ph.setLayer("eval.evaluate_ms", float64(evalNS)/float64(time.Millisecond))
	ph.setLayer("trace.coverage", ratio(float64(fit.ns+classify.ns+evalNS), float64(time.Millisecond)*ph.primary.meanMS()))
	return nil
}

func (w *learnWorkload) close() error { return nil }
