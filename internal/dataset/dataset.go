// Package dataset assembles simulated executions into the labelled
// collection the experiments run on: the application/input grid of
// Table 2, with per-(metric, node) window means for the EFD and
// full-execution summaries for the Taxonomist baseline.
//
// Telemetry is summarized at ingestion and the raw series discarded, so
// a full Table 2 grid (1100+ executions × 50 metrics × 4 nodes) stays
// within tens of megabytes.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// NodeMetricStats summarizes one metric on one node of one execution.
type NodeMetricStats struct {
	// Full is the summary over the entire execution (what Taxonomist
	// consumes).
	Full stats.Summary
	// Means are the window means (what the EFD consumes), in the
	// dataset's window order. A window the series does not cover, or
	// whose sum is not finite, is absent. Configurations carry a
	// handful of windows, so Execution.WindowMean scans this slice.
	Means []WindowMean
}

// WindowMean is the mean of the samples in one window.
type WindowMean struct {
	Window telemetry.Window
	Mean   float64
}

// mean returns the stored mean over the window, if present.
func (nms *NodeMetricStats) mean(w telemetry.Window) (float64, bool) {
	for _, m := range nms.Means {
		if m.Window == w {
			return m.Mean, true
		}
	}
	return 0, false
}

// Execution is one labelled run: the unit of recognition.
type Execution struct {
	// ID is unique within a Dataset.
	ID int
	// Label is the ground-truth (application, input) pair.
	Label apps.Label
	// NumNodes is the number of nodes the execution used.
	NumNodes int
	// Duration is the wall time of the execution.
	Duration time.Duration
	// Stats maps metric name to per-node summaries (index = node ID).
	Stats map[string][]NodeMetricStats
}

// WindowMean returns the stored mean of metric on node over the window,
// if present. It allocates nothing.
func (e *Execution) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	per, ok := e.Stats[metric]
	if !ok || node < 0 || node >= len(per) {
		return 0, false
	}
	return per[node].mean(w)
}

// Metrics returns the sorted metric names present in the execution.
func (e *Execution) Metrics() []string {
	out := make([]string, 0, len(e.Stats))
	for m := range e.Stats {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Dataset is a collection of labelled executions sharing a window
// configuration.
type Dataset struct {
	// Windows are the intervals whose means were extracted.
	Windows []telemetry.Window
	// Executions holds the runs, ordered by ID.
	Executions []*Execution
}

// DefaultWindows are the intervals summarized at ingestion: the paper's
// fingerprint window plus its neighbours, used by the interval ablation.
func DefaultWindows() []telemetry.Window {
	sec := func(a, b int) telemetry.Window {
		return telemetry.Window{
			Start: time.Duration(a) * time.Second,
			End:   time.Duration(b) * time.Second,
		}
	}
	return []telemetry.Window{
		sec(0, 60), sec(60, 120), sec(120, 180), sec(30, 90), sec(0, 120),
	}
}

// Summarize converts raw telemetry into an Execution record with the
// given label and windows. It sorts any series flagged unsorted first,
// then scans each window of each series once (Series.WindowMean).
func Summarize(id int, label apps.Label, ns *telemetry.NodeSet, windows []telemetry.Window) *Execution {
	ns.Sort()
	nodes := ns.Nodes()
	e := &Execution{
		ID:       id,
		Label:    label,
		NumNodes: len(nodes),
		Duration: ns.Duration(),
		Stats:    make(map[string][]NodeMetricStats),
	}
	for _, metric := range ns.Metrics() {
		per := make([]NodeMetricStats, len(nodes))
		for i, node := range nodes {
			s := ns.Get(node, metric)
			if s == nil {
				continue
			}
			nms := NodeMetricStats{
				Full:  stats.Describe(s.ValuesView()),
				Means: make([]WindowMean, 0, len(windows)),
			}
			for _, w := range windows {
				if mean, err := s.WindowMean(w); err == nil {
					nms.Means = append(nms.Means, WindowMean{Window: w, Mean: mean})
				}
			}
			per[i] = nms
		}
		e.Stats[metric] = per
	}
	return e
}

// Len reports the number of executions.
func (d *Dataset) Len() int { return len(d.Executions) }

// Labels returns the distinct labels present, in application/input
// order.
func (d *Dataset) Labels() []apps.Label {
	seen := make(map[apps.Label]bool)
	var out []apps.Label
	for _, e := range d.Executions {
		if !seen[e.Label] {
			seen[e.Label] = true
			out = append(out, e.Label)
		}
	}
	apps.SortLabels(out)
	return out
}

// Apps returns the distinct application names present, sorted.
func (d *Dataset) Apps() []string {
	seen := make(map[string]bool)
	for _, e := range d.Executions {
		seen[e.Label.App] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Inputs returns the distinct input sizes present, in size order.
func (d *Dataset) Inputs() []apps.Input {
	seen := make(map[apps.Input]bool)
	for _, e := range d.Executions {
		seen[e.Label.Input] = true
	}
	var out []apps.Input
	for _, in := range apps.AllInputs {
		if seen[in] {
			out = append(out, in)
		}
	}
	return out
}

// Metrics returns the sorted union of metric names across executions.
func (d *Dataset) Metrics() []string {
	seen := make(map[string]bool)
	for _, e := range d.Executions {
		for m := range e.Stats {
			seen[m] = true
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Filter returns a shallow subset (executions shared) keeping only runs
// for which keep returns true.
func (d *Dataset) Filter(keep func(*Execution) bool) *Dataset {
	out := &Dataset{Windows: d.Windows}
	for _, e := range d.Executions {
		if keep(e) {
			out.Executions = append(out.Executions, e)
		}
	}
	return out
}

// WithoutInput returns the subset excluding executions with the given
// input size.
func (d *Dataset) WithoutInput(in apps.Input) *Dataset {
	return d.Filter(func(e *Execution) bool { return e.Label.Input != in })
}

// OnlyInput returns the subset with exactly the given input size.
func (d *Dataset) OnlyInput(in apps.Input) *Dataset {
	return d.Filter(func(e *Execution) bool { return e.Label.Input == in })
}

// WithoutApp returns the subset excluding executions of the given
// application.
func (d *Dataset) WithoutApp(app string) *Dataset {
	return d.Filter(func(e *Execution) bool { return e.Label.App != app })
}

// OnlyApp returns the subset with exactly the given application.
func (d *Dataset) OnlyApp(app string) *Dataset {
	return d.Filter(func(e *Execution) bool { return e.Label.App == app })
}

// Subset returns a shallow dataset holding the executions at the given
// indexes.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Windows: d.Windows, Executions: make([]*Execution, 0, len(idx))}
	for _, i := range idx {
		out.Executions = append(out.Executions, d.Executions[i])
	}
	return out
}

// Fold is one train/test split.
type Fold struct {
	Train []int
	Test  []int
}

// KFold produces k stratified folds: every label's executions are
// spread as evenly as possible across the folds, matching
// scikit-learn's StratifiedKFold with shuffling. It returns an error
// when k exceeds the size of the smallest class or is less than 2.
func (d *Dataset) KFold(k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, errors.New("dataset: k must be at least 2")
	}
	byLabel := make(map[apps.Label][]int)
	for i, e := range d.Executions {
		byLabel[e.Label] = append(byLabel[e.Label], i)
	}
	for l, idx := range byLabel {
		if len(idx) < k {
			return nil, fmt.Errorf("dataset: label %s has %d executions, fewer than k=%d",
				l, len(idx), k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, len(d.Executions)) // execution index -> fold
	labels := make([]apps.Label, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	apps.SortLabels(labels)
	for _, l := range labels {
		idx := byLabel[l]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for pos, i := range idx {
			assign[i] = pos % k
		}
	}
	folds := make([]Fold, k)
	if len(assign) == 0 {
		return folds, nil
	}
	// Count each fold's size first, so every slice is allocated once.
	size := make([]int, k)
	for _, f := range assign {
		size[f]++
	}
	for f := range folds {
		folds[f] = Fold{Train: make([]int, 0, len(assign)-size[f]), Test: make([]int, 0, size[f])}
	}
	for i, f := range assign {
		for fold := range folds {
			if fold == f {
				folds[fold].Test = append(folds[fold].Test, i)
			} else {
				folds[fold].Train = append(folds[fold].Train, i)
			}
		}
	}
	return folds, nil
}

// Validate checks dataset invariants: unique IDs, consistent metric
// sets, and per-metric node arrays matching NumNodes.
func (d *Dataset) Validate() error {
	ids := make(map[int]bool)
	var ref []string
	for _, e := range d.Executions {
		if ids[e.ID] {
			return fmt.Errorf("dataset: duplicate execution ID %d", e.ID)
		}
		ids[e.ID] = true
		mets := e.Metrics()
		if ref == nil {
			ref = mets
		} else if len(mets) != len(ref) {
			return fmt.Errorf("dataset: execution %d has %d metrics, expected %d",
				e.ID, len(mets), len(ref))
		}
		for m, per := range e.Stats {
			if len(per) != e.NumNodes {
				return fmt.Errorf("dataset: execution %d metric %s has %d node entries, expected %d",
					e.ID, m, len(per), e.NumNodes)
			}
		}
	}
	return nil
}
