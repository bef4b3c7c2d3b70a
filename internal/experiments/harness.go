// Package experiments implements the paper's evaluation (§4): the five
// recognition protocols of Figure 2 (normal fold, soft input, soft
// unknown, hard input, hard unknown) for both the EFD and the
// Taxonomist baseline, the per-metric sweep of Table 3, the example
// dictionary of Table 4, and the ablations cmd/experiments -ablation
// runs (rounding depth, interval, voting, metric combination, growth,
// recognition latency).
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/taxonomist"
)

// Harness runs the evaluation protocols over one dataset. Each protocol
// call, and each ablation but the dictionary growth, builds one
// core.Trainer per fingerprint configuration, which renders every
// execution's keys once (the voting ablation's also renders a node-0
// view of each execution). Every outer fold hands the trainer its rows,
// as dataset.KFold lists them: the fold chooses its depth from that
// rendering and recognizes its test rows through the trainer's grid
// (core.Trainer.Classify), building no Dictionary or Recognizer; the
// trainer is dropped when the call returns. Every protocol's folds
// (the outer folds, or one split per held-out value in the hard
// protocols) and the outer folds of the interval, voting and
// metric-sweep evaluations run concurrently on one bounded worker pool
// (internal/par, sized by Workers), as do the sweep's metrics; results
// are assembled in fold order, so every score is byte-identical to a
// sequential run.
type Harness struct {
	// DS is the labelled dataset.
	DS *dataset.Dataset
	// Fit configures EFD training (metric, windows, candidate depths).
	Fit core.FitConfig
	// Folds is the outer cross-validation fold count (paper: 5).
	Folds int
	// Seed drives fold shuffling.
	Seed int64
	// Taxo configures the Taxonomist baseline; nil skips it (the
	// baseline costs far more compute than the EFD).
	Taxo *TaxoConfig
	// Workers bounds the harness worker pool (outer folds, the hard
	// protocols' held-out values, the sweep's metrics): 0 means
	// GOMAXPROCS, 1 runs them sequentially. Scores do not depend on it.
	Workers int
}

// TaxoConfig bundles the baseline settings.
type TaxoConfig struct {
	// Features selects the metrics Taxonomist extracts statistics
	// from; nil uses every metric (the baseline's "rich monitoring
	// data" setting).
	Features taxonomist.FeatureConfig
	// Forest configures the classifier.
	Forest taxonomist.ForestConfig
	// Threshold is the unknown-detection confidence (default 0.5).
	Threshold float64
}

// NewHarness returns a harness with the paper's defaults: 5 folds, the
// headline EFD configuration, and no baseline.
func NewHarness(ds *dataset.Dataset) *Harness {
	return &Harness{DS: ds, Fit: core.DefaultFitConfig(), Folds: 5, Seed: 42}
}

// Score is one protocol outcome.
type Score struct {
	// Protocol names the experiment ("normal fold", "soft input", ...).
	Protocol string
	// EFD is the macro F-score of the EFD.
	EFD float64
	// Taxonomist is the baseline's macro F-score; NaN-free: valid only
	// when HasTaxonomist.
	Taxonomist    float64
	HasTaxonomist bool
	// PerDimension breaks the score down by removed input size or
	// application (empty for the normal fold).
	PerDimension map[string]float64
	// Report is the pooled EFD classification report.
	Report eval.Report
}

// String renders the score compactly.
func (s Score) String() string {
	if s.HasTaxonomist {
		return fmt.Sprintf("%-14s EFD=%.3f Taxonomist=%.3f", s.Protocol, s.EFD, s.Taxonomist)
	}
	return fmt.Sprintf("%-14s EFD=%.3f", s.Protocol, s.EFD)
}

// fitter trains on subsets of the dataset it was built for, each given
// as a list of rows of that dataset: Classify pairs each test row's
// execution with what the training rows' dictionary recognizes it as,
// and returns the report of that dictionary's fit.
type fitter interface {
	Classify(train, test []int) ([]eval.Pair, core.FitReport, error)
}

// fitterFor builds the fitter a protocol call trains its folds with:
// one per fingerprint configuration, over the harness dataset.
type fitterFor func(ds *dataset.Dataset, cfg core.FitConfig) (fitter, error)

// trainer is the fitterFor of every protocol: a core.Trainer renders
// each execution's keys once, and every fold chooses its depth and
// recognizes its test rows from that rendering, through the trainer's
// grid. It lives for one protocol call.
func trainer(ds *dataset.Dataset, cfg core.FitConfig) (fitter, error) {
	return core.NewTrainer(ds, cfg)
}

// efdPairs recognizes the test rows with what the training rows teach,
// through f.Classify (a core.Trainer's builds no dictionary), mapping
// the truths in unknownApps to "unknown" (those executions should NOT
// be recognized).
func efdPairs(f fitter, train, test []int, unknownApps map[string]bool) ([]eval.Pair, error) {
	pairs, _, err := f.Classify(train, test)
	if err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if unknownApps[p.Truth] {
			pairs[i].Truth = core.Unknown
		}
	}
	return pairs, nil
}

// taxoPairs trains the baseline on the training rows of the harness
// dataset and classifies the test rows at node granularity
// (Taxonomist's setting), mapping unknown-app truths like efdPairs.
func (h *Harness) taxoPairs(train, test []int, unknownApps map[string]bool) ([]eval.Pair, error) {
	trainFV, _, err := taxonomist.Extract(h.DS.Subset(train), h.Taxo.Features)
	if err != nil {
		return nil, err
	}
	testFV, _, err := taxonomist.Extract(h.DS.Subset(test), h.Taxo.Features)
	if err != nil {
		return nil, err
	}
	forest, err := taxonomist.TrainForest(trainFV, h.Taxo.Forest)
	if err != nil {
		return nil, err
	}
	if h.Taxo.Threshold > 0 {
		if err := forest.SetThreshold(h.Taxo.Threshold); err != nil {
			return nil, err
		}
	}
	preds := forest.PredictBatch(testFV)
	pairs := make([]eval.Pair, len(testFV))
	for i, fv := range testFV {
		truth := fv.App
		if unknownApps[truth] {
			truth = taxonomist.Unknown
		}
		pairs[i] = eval.Pair{Truth: truth, Pred: preds[i]}
	}
	return pairs, nil
}

// foldPairs carries one fold's classification outcomes.
type foldPairs struct {
	efd  []eval.Pair
	taxo []eval.Pair
}

// mergeFolds concatenates per-fold outcomes in fold order, allocating
// each merged slice once.
func mergeFolds(folds []foldPairs) foldPairs {
	var ne, nt int
	for _, f := range folds {
		ne += len(f.efd)
		nt += len(f.taxo)
	}
	merged := foldPairs{efd: make([]eval.Pair, 0, ne), taxo: make([]eval.Pair, 0, nt)}
	for _, f := range folds {
		merged.efd = append(merged.efd, f.efd...)
		merged.taxo = append(merged.taxo, f.taxo...)
	}
	return merged
}

// foldRun is the only loop over the outer folds: it calls fn once per
// fold of the harness dataset with the fold's training and test rows,
// on the harness worker pool, and returns the per-fold results in fold
// order, the same sequence a sequential loop would have produced. Every
// fold runs; the error is the lowest failing fold's. The rows index the
// harness dataset, so concurrent folds can train from one trainer.
func foldRun[T any](h *Harness, fn func(train, test []int) (T, error)) ([]T, error) {
	folds, err := h.DS.KFold(h.Folds, h.Seed)
	if err != nil {
		return nil, err
	}
	return par.Map(len(folds), h.Workers, func(i int) (T, error) {
		return fn(folds[i].Train, folds[i].Test)
	})
}

// meanOf averages the values of a per-dimension score map, summed in
// key order: floating-point addition is not associative, so a sum in
// map iteration order could differ in the last bits between calls.
func meanOf(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, k := range sortedKeys(m) {
		s += m[k]
	}
	return s / float64(len(m))
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heldOut is one value a per-dimension protocol holds out of learning:
// an input size, or an application. has reports whether an execution
// has the value. unknown names the applications whose truths become
// Unknown: the held-out one, and none for an input size.
type heldOut struct {
	name    string
	has     func(*dataset.Execution) bool
	unknown map[string]bool
}

// split divides rows of ds into those whose executions lack v and
// those that have it, each in the order of rows.
func (v heldOut) split(ds *dataset.Dataset, rows []int) (without, with []int) {
	without = make([]int, 0, len(rows))
	for _, i := range rows {
		if v.has(ds.Executions[i]) {
			with = append(with, i)
		} else {
			without = append(without, i)
		}
	}
	return without, with
}

// heldInputs lists the input sizes present in the dataset, in size
// order, as held-out values.
func (h *Harness) heldInputs() []heldOut {
	var out []heldOut
	for _, in := range h.DS.Inputs() {
		out = append(out, heldOut{
			name: string(in),
			has:  func(e *dataset.Execution) bool { return e.Label.Input == in },
		})
	}
	return out
}

// heldApps lists the applications present in the dataset, sorted, as
// held-out values.
func (h *Harness) heldApps() []heldOut {
	var out []heldOut
	for _, app := range h.DS.Apps() {
		out = append(out, heldOut{
			name:    app,
			has:     func(e *dataset.Execution) bool { return e.Label.App == app },
			unknown: map[string]bool{app: true},
		})
	}
	return out
}
