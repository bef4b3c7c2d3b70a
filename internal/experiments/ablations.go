package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

// DepthAblation evaluates the normal-fold protocol at each fixed
// rounding depth (no inner tuning), exposing the pruning/exclusiveness
// trade-off of §5: shallow depths over-prune and collide, deep depths
// under-prune and stop repeating. It is Fit's cross-validation grid
// (core.CrossValidate) run over the outer folds.
func (h *Harness) DepthAblation(depths []int) (map[int]float64, error) {
	cfg := h.Fit
	cfg.Depths, cfg.InnerFolds, cfg.Seed = depths, h.Folds, h.Seed
	return core.CrossValidate(h.DS, cfg)
}

// IntervalAblation evaluates the normal-fold protocol with the
// fingerprint window moved across the execution, justifying the paper's
// [60:120] choice: the initialization phase (first minute) is turbulent
// and makes poor fingerprints. Each window recognizes its folds through
// one core.Trainer. nil windows scores every window of the dataset.
func (h *Harness) IntervalAblation(windows []telemetry.Window) (map[string]float64, error) {
	return h.intervalAblation(windows, trainer)
}

func (h *Harness) intervalAblation(windows []telemetry.Window, fitFor fitterFor) (map[string]float64, error) {
	if windows == nil {
		windows = h.DS.Windows
	}
	out := make(map[string]float64, len(windows))
	for _, w := range windows {
		cfg := h.Fit
		cfg.Windows = []telemetry.Window{w}
		fit, err := fitFor(h.DS, cfg)
		if err != nil {
			return nil, err
		}
		folds, err := foldRun(h, func(train, test *dataset.Dataset) ([]eval.Pair, error) {
			pairs, _, err := fit.Classify(train, test)
			return pairs, err
		})
		if err != nil {
			return nil, err
		}
		out[w.String()] = eval.F1Macro(slices.Concat(folds...))
	}
	return out, nil
}

// singleNodeSource restricts a WindowSource to one node: fingerprints
// exist only for that node, so recognition loses the cross-node vote.
type singleNodeSource struct {
	src  core.WindowSource
	node int
}

func (s singleNodeSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	if node != s.node {
		return 0, false
	}
	return s.src.WindowMean(metric, node, w)
}

func (s singleNodeSource) NodeCount() int { return s.src.NodeCount() }

// VotingAblation contrasts recognition through all involved nodes (the
// EFD's design, §5 "it stands to reason that we recognize an
// application through all involved nodes") against recognition from a
// single node's fingerprints. The folds fit from one core.Trainer; each
// builds its dictionary, because the single-node pass recognizes
// sources the trainer has no keys for.
func (h *Harness) VotingAblation() (allNodes, singleNode float64, err error) {
	return h.votingAblation(trainer)
}

func (h *Harness) votingAblation(fitFor fitterFor) (allNodes, singleNode float64, err error) {
	fit, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return 0, 0, err
	}
	// One fold's recognitions through all nodes and through node 0
	// alone.
	type votes struct{ all, single []eval.Pair }
	folds, err := foldRun(h, func(train, test *dataset.Dataset) (votes, error) {
		d, _, err := fit.Fit(train)
		if err != nil {
			return votes{}, err
		}
		v := votes{all: core.ClassifyWorkers(d, test, h.Fit.Workers), single: make([]eval.Pair, test.Len())}
		for i, e := range test.Executions {
			res := d.Recognize(singleNodeSource{src: core.Source(e), node: 0})
			v.single[i] = eval.Pair{Truth: e.Label.App, Pred: res.Top()}
		}
		return v, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var all, single []eval.Pair
	for _, v := range folds {
		all = append(all, v.all...)
		single = append(single, v.single...)
	}
	return eval.F1Macro(all), eval.F1Macro(single), nil
}

// ComboResult reports a metric-combination ablation row.
type ComboResult struct {
	Name    string
	Metrics []string
	// Joint reports whether the metrics were fused into composite keys
	// (the paper's combinatorial fingerprints) or voted independently.
	Joint      bool
	NormalFold float64
	// HardUnknown measures robustness against unrecognized
	// applications — the axis the paper expects combinatorial
	// fingerprints to improve (§6).
	HardUnknown float64
}

// ComboAblation evaluates multi-metric fingerprint combinations (the
// paper's future-work direction). Multi-metric combos run twice: with
// independent per-metric keys voting together, and with the metrics
// fused into one composite key per (node, window). Joint keys are more
// exclusive, which is exactly what the hard-unknown protocol rewards;
// independent voting adds matching opportunities, which normal-fold
// recognition rewards.
func (h *Harness) ComboAblation(combos map[string][]string) ([]ComboResult, error) {
	if combos == nil {
		combos = map[string][]string{
			"headline (1 metric)": {apps.HeadlineMetric},
			"memory trio":         {apps.HeadlineMetric, "Committed_AS_meminfo", "Active_meminfo"},
			"memory+nic":          {apps.HeadlineMetric, "Committed_AS_meminfo", "AMO_PKTS_metric_set_nic"},
		}
	}
	var out []ComboResult
	for _, name := range sortedComboNames(combos) {
		metrics := combos[name]
		modes := []bool{false}
		if len(metrics) > 1 {
			modes = []bool{false, true}
		}
		for _, joint := range modes {
			sub := *h
			sub.Fit.Metrics = metrics
			sub.Fit.Joint = joint
			nf, err := sub.NormalFold()
			if err != nil {
				return nil, err
			}
			hu, err := sub.HardUnknown()
			if err != nil {
				return nil, err
			}
			label := name
			if len(metrics) > 1 {
				if joint {
					label += " [joint]"
				} else {
					label += " [voting]"
				}
			}
			out = append(out, ComboResult{
				Name:        label,
				Metrics:     metrics,
				Joint:       joint,
				NormalFold:  nf.EFD,
				HardUnknown: hu.EFD,
			})
		}
	}
	return out, nil
}

func sortedComboNames(m map[string][]string) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	// Order by ascending metric count, then name, so single-metric
	// baselines print first.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0; j-- {
			a, b := names[j-1], names[j]
			if len(m[a]) > len(m[b]) || (len(m[a]) == len(m[b]) && a > b) {
				names[j-1], names[j] = b, a
			} else {
				break
			}
		}
	}
	return names
}

// DictionaryGrowth measures dictionary size (keys) as a function of
// rounding depth over the full dataset — the "pruning" effect of
// Table 1's mechanism.
func (h *Harness) DictionaryGrowth(depths []int) (map[int]core.Stats, error) {
	if depths == nil {
		depths = []int{1, 2, 3, 4, 5, 6}
	}
	out := make(map[int]core.Stats, len(depths))
	for _, depth := range depths {
		d, err := core.Build(h.DS, core.Config{
			Metrics: h.Fit.Metrics, Windows: h.Fit.Windows, Depth: depth, Joint: h.Fit.Joint,
		})
		if err != nil {
			return nil, err
		}
		out[depth] = d.Stats()
	}
	return out, nil
}

// LatencyAblation reports how early the EFD can answer: it shifts the
// window end while keeping a 60-second width, measuring normal-fold F
// as a function of "seconds into the execution" at which the answer is
// available. Windows the dataset did not summarize are left out; a
// dataset that summarizes none of them is an error.
func (h *Harness) LatencyAblation() (map[string]float64, error) {
	windows := []telemetry.Window{
		{Start: 0, End: 30 * time.Second},
		{Start: 0, End: 60 * time.Second},
		{Start: 30 * time.Second, End: 90 * time.Second},
		{Start: 60 * time.Second, End: 120 * time.Second},
		{Start: 120 * time.Second, End: 180 * time.Second},
	}
	// Only windows that were summarized at ingestion can be evaluated.
	available := make(map[string]bool)
	for _, w := range h.DS.Windows {
		available[w.String()] = true
	}
	var usable []telemetry.Window
	for _, w := range windows {
		if available[w.String()] {
			usable = append(usable, w)
		}
	}
	if usable == nil {
		// IntervalAblation(nil) would score the dataset's own windows.
		return nil, fmt.Errorf("experiments: latency ablation: the dataset summarizes none of the windows %v", windows)
	}
	return h.IntervalAblation(usable)
}
