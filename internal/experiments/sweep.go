package experiments

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
)

// MetricScore is one row of Table 3: a system metric and its
// normal-fold F-score when used as the EFD's single metric.
type MetricScore struct {
	Metric string
	FScore float64
	// Depth is the rounding depth cross-validation selected most often
	// across folds.
	Depth int
}

// MetricSweep evaluates every listed metric individually under the
// normal-fold protocol, reproducing Table 3. Metrics, and each metric's
// folds, are evaluated on the harness worker pool, each metric
// recognizing its folds through one core.Trainer;
// rows come back sorted by descending F-score, ties by name, the order
// the paper lists them in.
func (h *Harness) MetricSweep(metrics []string) ([]MetricScore, error) {
	return h.metricSweep(metrics, trainer)
}

func (h *Harness) metricSweep(metrics []string, fitFor fitterFor) ([]MetricScore, error) {
	if metrics == nil {
		metrics = h.DS.Metrics()
	}
	out, err := par.Map(len(metrics), h.Workers, func(i int) (MetricScore, error) {
		cfg := h.Fit
		cfg.Metrics = []string{metrics[i]}
		fit, err := fitFor(h.DS, cfg)
		if err != nil {
			return MetricScore{}, err
		}
		// Each fold's recognitions and the depth its training set chose.
		type fold struct {
			pairs []eval.Pair
			depth int
		}
		folds, err := foldRun(h, func(train, test *dataset.Dataset) (fold, error) {
			pairs, rep, err := fit.Classify(train, test)
			return fold{pairs, rep.BestDepth}, err
		})
		if err != nil {
			return MetricScore{}, err
		}
		var pairs []eval.Pair
		depthVotes := make(map[int]int)
		for _, f := range folds {
			depthVotes[f.depth]++
			pairs = append(pairs, f.pairs...)
		}
		best, bestVotes := 0, -1
		for depth, v := range depthVotes {
			if v > bestVotes || (v == bestVotes && depth < best) {
				best, bestVotes = depth, v
			}
		}
		return MetricScore{Metric: metrics[i], FScore: eval.F1Macro(pairs), Depth: best}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].FScore != out[b].FScore {
			return out[a].FScore > out[b].FScore
		}
		return out[a].Metric < out[b].Metric
	})
	return out, nil
}

// ExampleDictionary reproduces Table 4: a dictionary built from a
// subset of applications and input sizes at a fixed rounding depth 2,
// on the headline metric.
func ExampleDictionary(ds *dataset.Dataset) (*core.Dictionary, error) {
	subset := map[string]bool{
		"ft": true, "mg": true, "sp": true, "bt": true,
		"lu": true, "miniGhost": true, "miniAMR": true,
	}
	sub := ds.Filter(func(e *dataset.Execution) bool {
		return subset[e.Label.App] && e.Label.Input != "L"
	})
	return core.Build(sub, core.DefaultConfig(2))
}
