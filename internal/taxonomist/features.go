// Package taxonomist reimplements the baseline the paper compares
// against: Taxonomist (Ates et al., Euro-Par 2018), a machine-learning
// pipeline that classifies applications from rich monitoring data. It
// extracts eleven summary statistics per metric over the whole
// execution window and classifies with a random forest, labelling
// low-confidence predictions as unknown.
//
// Unlike the EFD, Taxonomist classifies individual nodes: each node of
// an execution is one example (the paper notes this difference in §5).
// Package experiments aggregates node predictions when comparing
// against the EFD at execution granularity.
package taxonomist

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
)

// FeatureVector is one training or test example: the concatenated
// summary statistics of every selected metric on one node.
type FeatureVector struct {
	// Values holds 11 statistics per metric, metric-major.
	Values []float64
	// App is the ground-truth application name (empty for unlabelled
	// examples).
	App string
	// ExecID and Node locate the example's origin.
	ExecID int
	Node   int
}

// FeatureConfig selects which metrics contribute features.
type FeatureConfig struct {
	// Metrics lists the metrics to featurize; nil uses every metric of
	// the dataset (Taxonomist's setting: all available metrics).
	Metrics []string
}

// FeatureNamesFor enumerates the feature names ("metric:stat") produced
// for the given metric list, in extraction order.
func FeatureNamesFor(metrics []string) []string {
	statNames := []string{"min", "max", "mean", "std", "skew", "kurtosis", "p5", "p25", "p50", "p75", "p95"}
	out := make([]string, 0, len(metrics)*len(statNames))
	for _, m := range metrics {
		for _, s := range statNames {
			out = append(out, m+":"+s)
		}
	}
	return out
}

// Extract converts a dataset into per-node feature vectors. Every node
// of every execution becomes one example, matching Taxonomist's
// node-granular classification. It sorts a copy of cfg.Metrics, never
// the caller's slice, so concurrent calls may share one cfg.
func Extract(ds *dataset.Dataset, cfg FeatureConfig) ([]FeatureVector, []string, error) {
	metrics := slices.Clone(cfg.Metrics)
	if metrics == nil {
		metrics = ds.Metrics()
	}
	slices.Sort(metrics)
	var out []FeatureVector
	for _, e := range ds.Executions {
		for node := 0; node < e.NumNodes; node++ {
			fv := FeatureVector{
				Values: make([]float64, 0, len(metrics)*11),
				App:    e.Label.App,
				ExecID: e.ID,
				Node:   node,
			}
			for _, m := range metrics {
				per, ok := e.Stats[m]
				if !ok || node >= len(per) {
					return nil, nil, fmt.Errorf("taxonomist: execution %d lacks metric %q node %d",
						e.ID, m, node)
				}
				fv.Values = append(fv.Values, per[node].Full.Vector()...)
			}
			out = append(out, fv)
		}
	}
	return out, FeatureNamesFor(metrics), nil
}
