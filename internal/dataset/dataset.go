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
	// WindowMeans maps a window key (Window.Key()) to the mean of
	// the samples in that window. Windows the series does not cover
	// are absent (what the EFD consumes). This is the canonical,
	// serialized form; the recognition hot path reads byWindow instead.
	WindowMeans map[string]float64
	// byWindow indexes WindowMeans by the Window value itself, as two
	// parallel slices: configurations carry a handful of windows, so a
	// linear scan beats both map hashing and string formatting on the
	// recognition hot path (WindowMean is probed once per fingerprint
	// key). Built by indexWindows (Summarize and the CSV loader call
	// it); when empty, WindowMean falls back to the string-keyed map.
	winKeys  []telemetry.Window
	winMeans []float64
}

// indexWindows (re)builds the Window-keyed view of WindowMeans. It is
// called at construction time; executions assembled by hand work
// without it through the string-keyed fallback.
func (nms *NodeMetricStats) indexWindows() {
	nms.winKeys, nms.winMeans = nil, nil
	if nms.WindowMeans == nil {
		return
	}
	nms.winKeys = make([]telemetry.Window, 0, len(nms.WindowMeans))
	nms.winMeans = make([]float64, 0, len(nms.WindowMeans))
	for ks, v := range nms.WindowMeans {
		if w, err := telemetry.ParseWindow(ks); err == nil {
			nms.winKeys = append(nms.winKeys, w)
			nms.winMeans = append(nms.winMeans, v)
		}
	}
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
// if present. Executions built by Summarize or the CSV loader answer
// through a Window-indexed map (no string formatting, no allocation);
// hand-assembled executions fall back to the WindowMeans string keys.
func (e *Execution) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	per, ok := e.Stats[metric]
	if !ok || node < 0 || node >= len(per) {
		return 0, false
	}
	if keys := per[node].winKeys; keys != nil {
		for i, k := range keys {
			if k == w {
				return per[node].winMeans[i], true
			}
		}
		return 0, false
	}
	v, ok := per[node].WindowMeans[w.Key()]
	return v, ok
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
// given label and windows. It seals the telemetry first (building the
// per-series prefix sums), so extracting any number of window means
// costs one pass over each series plus O(1) per window, instead of one
// scan per (window, series) pair.
func Summarize(id int, label apps.Label, ns *telemetry.NodeSet, windows []telemetry.Window) *Execution {
	ns.Seal()
	nodes := ns.Nodes()
	e := &Execution{
		ID:       id,
		Label:    label,
		NumNodes: len(nodes),
		Duration: ns.Duration(),
		Stats:    make(map[string][]NodeMetricStats),
	}
	// Window key strings are computed once per Summarize call, not per
	// (metric, node, window) probe.
	winKeys := make([]string, len(windows))
	for i, w := range windows {
		winKeys[i] = w.Key()
	}
	for _, metric := range ns.Metrics() {
		per := make([]NodeMetricStats, len(nodes))
		for i, node := range nodes {
			s := ns.Get(node, metric)
			if s == nil {
				continue
			}
			nms := NodeMetricStats{
				Full:        stats.Describe(s.ValuesView()),
				WindowMeans: make(map[string]float64, len(windows)),
				winKeys:     make([]telemetry.Window, 0, len(windows)),
				winMeans:    make([]float64, 0, len(windows)),
			}
			for wi, w := range windows {
				if mean, err := s.WindowMean(w); err == nil {
					nms.WindowMeans[winKeys[wi]] = mean
					nms.winKeys = append(nms.winKeys, w)
					nms.winMeans = append(nms.winMeans, mean)
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
