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
	"slices"
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
	_, labels := d.LabelIDs()
	return labels
}

// LabelIDs numbers the distinct labels of the executions in
// apps.SortLabels order: execution i's label is labels[ids[i]]. The
// numbering depends only on the executions, in order, so labels that
// apps.SortLabels ranks equal are numbered alike on every call.
func (d *Dataset) LabelIDs() (ids []int32, labels []apps.Label) {
	num := make(map[apps.Label]int32)
	ids = make([]int32, len(d.Executions))
	for i, e := range d.Executions {
		id, ok := num[e.Label]
		if !ok {
			id = int32(len(labels))
			num[e.Label] = id
			labels = append(labels, e.Label)
		}
		ids[i] = id
	}
	// Renumber the labels, numbered above in order of first
	// appearance, in label order.
	sorted := slices.Clone(labels)
	apps.SortLabels(sorted)
	renum := make([]int32, len(labels))
	for id, l := range sorted {
		renum[num[l]] = int32(id)
	}
	for i, id := range ids {
		ids[i] = renum[id]
	}
	return ids, sorted
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

// KFold produces k stratified folds of d's executions: every label's
// executions are spread as evenly as possible across the folds,
// matching scikit-learn's StratifiedKFold with shuffling
// (StratifiedFolds over LabelIDs). It returns an error when k is less
// than 2 or exceeds the size of the smallest class.
func (d *Dataset) KFold(k int, seed int64) ([]Fold, error) {
	ids, labels := d.LabelIDs()
	return StratifiedFolds(ids, labels, k, seed)
}

// Stratify groups the positions of ids, label numbers below n, by
// number with a counting sort, each group in ascending position order,
// then shuffles the groups in number order from one generator seeded
// once with seed. Group l is pos[start[l]:start[l+1]]. It is the one
// stratified shuffle of the module: KFold, the trainer's inner folds
// and efd.Split draw from it, so one seed splits alike everywhere.
func Stratify(ids []int32, n int, seed int64) (pos, start []int) {
	start = make([]int, n+1)
	for _, id := range ids {
		start[id+1]++
	}
	for l := 1; l <= n; l++ {
		start[l] += start[l-1]
	}
	pos = make([]int, len(ids))
	for p, id := range ids {
		pos[start[id]] = p
		start[id]++
	}
	// Placing moved each group's start to the next group's: move them
	// back.
	copy(start[1:], start[:n])
	start[0] = 0
	rng := rand.New(rand.NewSource(seed))
	for l := range n {
		g := pos[start[l]:start[l+1]]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	return pos, start
}

// StratifiedFolds deals the positions of ids, label numbers into labels
// (as LabelIDs gives them), into k stratified folds: Stratify shuffles
// each label's positions, and the i-th of them goes to the test set of
// fold i mod k. Each fold lists its test and training positions in
// ascending order. It returns an error when k is less than 2 or exceeds
// the size of a label present in ids, naming the first such label in
// label order.
func StratifiedFolds(ids []int32, labels []apps.Label, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, errors.New("dataset: k must be at least 2")
	}
	pos, start := Stratify(ids, len(labels), seed)
	assign := make([]int, len(ids)) // position -> fold
	for l, label := range labels {
		g := pos[start[l]:start[l+1]]
		if len(g) > 0 && len(g) < k {
			return nil, fmt.Errorf("dataset: label %s has %d executions, fewer than k=%d", label, len(g), k)
		}
		for i, p := range g {
			assign[p] = i % k
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
