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

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/taxonomist"
)

// Harness runs the evaluation protocols over one dataset. Outer folds
// evaluate concurrently on a bounded worker pool; per-fold results are
// assembled in fold order, so every protocol score is byte-identical to
// a sequential run.
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
	// Workers bounds the outer-fold worker pool: 0 means GOMAXPROCS,
	// 1 runs folds sequentially. Scores do not depend on it.
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

// efdPairs fits a dictionary on train and classifies test, mapping the
// truth of executions whose application is in unknownApps to "unknown"
// (they should NOT be recognized).
func (h *Harness) efdPairs(train, test *dataset.Dataset, unknownApps map[string]bool) ([]eval.Pair, error) {
	d, _, err := core.Fit(train, h.Fit)
	if err != nil {
		return nil, err
	}
	pairs := core.ClassifyWorkers(d, test, h.Fit.Workers)
	for i, e := range test.Executions {
		if unknownApps[e.Label.App] {
			pairs[i].Truth = core.Unknown
		}
	}
	return pairs, nil
}

// taxoPairs trains the baseline on train and classifies test at node
// granularity (Taxonomist's setting), mapping unknown-app truths like
// efdPairs.
func (h *Harness) taxoPairs(train, test *dataset.Dataset, unknownApps map[string]bool) ([]eval.Pair, error) {
	trainFV, _, err := taxonomist.Extract(train, h.Taxo.Features)
	if err != nil {
		return nil, err
	}
	testFV, _, err := taxonomist.Extract(test, h.Taxo.Features)
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

// concat appends other's pairs, preserving order.
func (fp *foldPairs) concat(other foldPairs) {
	fp.efd = append(fp.efd, other.efd...)
	fp.taxo = append(fp.taxo, other.taxo...)
}

// foldRun calls fn once per outer fold with the fold's train and test
// subsets, running folds concurrently on the harness worker pool, and
// returns the concatenation of the per-fold results in fold order —
// exactly the sequence a sequential loop with appends would have
// produced. The first error (by fold index) wins.
func (h *Harness) foldRun(fn func(train, test *dataset.Dataset) (foldPairs, error)) (foldPairs, error) {
	folds, err := h.DS.KFold(h.Folds, h.Seed)
	if err != nil {
		return foldPairs{}, err
	}
	outs := make([]foldPairs, len(folds))
	errs := make([]error, len(folds))
	par.For(len(folds), h.Workers, func(i int) {
		outs[i], errs[i] = fn(h.DS.Subset(folds[i].Train), h.DS.Subset(folds[i].Test))
	})
	var merged foldPairs
	for i := range outs {
		if errs[i] != nil {
			return foldPairs{}, errs[i]
		}
		merged.concat(outs[i])
	}
	return merged, nil
}

// meanOf averages the values of a per-dimension score map.
func meanOf(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range m {
		s += v
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

// removableInputs lists the input sizes present in the dataset; these
// are the dimensions the input protocols iterate over.
func (h *Harness) removableInputs() []apps.Input {
	return h.DS.Inputs()
}
