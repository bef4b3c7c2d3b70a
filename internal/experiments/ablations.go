package experiments

import (
	"time"

	"repro/internal/apps"
	"repro/internal/core"
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
// and makes poor fingerprints.
func (h *Harness) IntervalAblation(windows []telemetry.Window) (map[string]float64, error) {
	if windows == nil {
		windows = h.DS.Windows
	}
	folds, err := h.DS.KFold(h.Folds, h.Seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(windows))
	for _, w := range windows {
		fit := h.Fit
		fit.Windows = []telemetry.Window{w}
		var pairs []eval.Pair
		for _, f := range folds {
			d, _, err := core.Fit(h.DS.Subset(f.Train), fit)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, core.ClassifyWorkers(d, h.DS.Subset(f.Test), h.Fit.Workers)...)
		}
		out[w.String()] = eval.F1Macro(pairs)
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
// single node's fingerprints.
func (h *Harness) VotingAblation() (allNodes, singleNode float64, err error) {
	folds, err := h.DS.KFold(h.Folds, h.Seed)
	if err != nil {
		return 0, 0, err
	}
	var full, single []eval.Pair
	for _, f := range folds {
		d, _, err := core.Fit(h.DS.Subset(f.Train), h.Fit)
		if err != nil {
			return 0, 0, err
		}
		test := h.DS.Subset(f.Test)
		full = append(full, core.ClassifyWorkers(d, test, h.Fit.Workers)...)
		for _, e := range test.Executions {
			res := d.Recognize(singleNodeSource{src: core.Source(e), node: 0})
			single = append(single, eval.Pair{Truth: e.Label.App, Pred: res.Top()})
		}
	}
	return eval.F1Macro(full), eval.F1Macro(single), nil
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
// available.
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
	return h.IntervalAblation(usable)
}
