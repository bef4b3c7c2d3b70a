// Package core implements the paper's contribution: the Execution
// Fingerprint Dictionary (EFD).
//
// An execution fingerprint is the rounded mean of one system metric on
// one node over one time interval of an execution — e.g.
// [nr_mapped_vmstat, 0, [60:120], 6000.0]. The dictionary stores
// fingerprints as keys mapped to the (application, input size) labels
// that produced them. Recognition looks up the fingerprints of an
// unlabelled execution and returns the most-matched application name,
// Shazam-style: no distance computations, no model training — a hash
// lookup.
//
// Beyond the paper's headline mechanism, the package implements the
// paper's §6 future-work direction of combinatorial fingerprints: in
// Joint mode, the rounded means of several metrics merge into a single
// composite key per (node, window), trading noise robustness for
// exclusiveness.
//
// # Interned keys and the public Fingerprint boundary
//
// The Fingerprint struct — three strings and a node index — is the
// public and serialized form of a key, but not the stored one. Inside a
// Dictionary, metric names, window encodings, applications and labels
// are interned into small integer IDs, entries live in
// per-(metric, window, node) buckets keyed by the canonical mean
// encoding alone, and each entry precomputes its per-application voting
// contribution. Conversion between the two forms happens only at the
// API boundary (Add, Lookup, Count, Entries, Save/Load).
//
// That split is what makes the recognition hot path allocation-free:
// a Recognizer extracts key bytes into a reused buffer, looks them up
// without string construction, and tallies votes in dense accumulators
// indexed by interned app ID. On a warmed dictionary,
// Recognizer.Recognize performs zero allocations per execution;
// Dictionary.Recognize is the convenience form that allocates a fresh
// scratch so its Result is independently owned. Training (Fit) extracts
// raw window means once per execution. Its depth×fold cross-validation
// grid builds no dictionary per cell: each candidate depth renders every
// execution's keys once into one key index, which numbers the distinct
// keys and records the applications and folds that produced each, and
// scores every fold from it. Neither the numbering nor the producer
// order needs a string per key or a comparison sort. A worker pool runs
// over the depths, with deterministic assembly; the final dictionary
// learns the keys the chosen depth's index already holds, so no key is
// rendered twice. Rendering a key is one decimal conversion
// (stats.AppendRoundedKey).
package core

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Fingerprint is the dictionary key: metric name, node ID, time
// interval, and the canonical encoding of the rounded window mean(s).
// The paper's example is [nr_mapped_vmstat, 0, [60:120], 6000.0].
//
// For joint (combinatorial) fingerprints, Metric is the "+"-joined
// metric list and Key the "|"-joined rounded means, in metric order.
type Fingerprint struct {
	// Metric is the system metric name, e.g. "nr_mapped_vmstat", or a
	// "+"-joined list for joint fingerprints.
	Metric string
	// Node is the node's index within the execution.
	Node int
	// Window is the interval in the paper's "[60:120]" notation.
	Window string
	// Key is the canonical shortest-decimal encoding of the rounded
	// mean (single metric) or of the "|"-joined rounded means (joint).
	// Two raw means produce the same Key exactly when they round to
	// the same value, so Key equality is fingerprint equality.
	Key string
}

// String renders the fingerprint in the paper's bracketed notation.
func (f Fingerprint) String() string {
	return fmt.Sprintf("[%s, %d, %s, %s]", f.Metric, f.Node, f.Window, f.Key)
}

// Mean returns the rounded mean encoded in the key. For joint
// fingerprints it returns the first component. It returns 0 for
// malformed keys (which Extract never produces).
func (f Fingerprint) Mean() float64 {
	s := f.Key
	if i := strings.IndexByte(s, '|'); i >= 0 {
		s = s[:i]
	}
	v, err := stats.ParseKey(s)
	if err != nil {
		return 0
	}
	return v
}

// NewFingerprint builds a single-metric fingerprint from a raw
// (unrounded) mean by applying the given rounding depth.
func NewFingerprint(metric string, node int, w telemetry.Window, rawMean float64, depth int) Fingerprint {
	return Fingerprint{
		Metric: metric,
		Node:   node,
		Window: w.String(),
		Key:    stats.FormatKey(stats.RoundDepth(rawMean, depth)),
	}
}

// Config selects which fingerprints are constructed from an execution.
// The paper's headline configuration is a single metric
// (nr_mapped_vmstat) and the single window [60:120].
type Config struct {
	// Metrics are the system metrics to fingerprint.
	Metrics []string
	// Windows are the time intervals to fingerprint.
	Windows []telemetry.Window
	// Depth is the rounding depth applied to window means.
	Depth int
	// Joint combines all metrics into one composite key per
	// (node, window) — the combinatorial fingerprints of §6 — instead
	// of one independent key per metric. Joint keys are more exclusive
	// (better unknown rejection) but require every component metric to
	// repeat simultaneously.
	Joint bool
}

// DefaultConfig returns the paper's headline configuration at the given
// rounding depth.
func DefaultConfig(depth int) Config {
	return Config{
		Metrics: []string{apps.HeadlineMetric},
		Windows: []telemetry.Window{telemetry.PaperWindow},
		Depth:   depth,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if len(c.Metrics) == 0 {
		return fmt.Errorf("core: config needs at least one metric")
	}
	if len(c.Windows) == 0 {
		return fmt.Errorf("core: config needs at least one window")
	}
	for _, w := range c.Windows {
		if !w.Valid() {
			return fmt.Errorf("core: invalid window %v", w)
		}
	}
	if c.Depth < 1 {
		return fmt.Errorf("core: rounding depth must be >= 1, got %d", c.Depth)
	}
	return nil
}

// WindowSource yields window means for fingerprint construction. Both
// dataset executions (offline) and streaming accumulators (online)
// implement it.
type WindowSource interface {
	// WindowMean returns the raw mean of the metric on the node over
	// the window, and whether the value is available.
	WindowMean(metric string, node int, w telemetry.Window) (float64, bool)
	// NodeCount reports the number of nodes of the execution.
	NodeCount() int
}

// Extract builds all fingerprints of the source under the
// configuration. Nodes whose telemetry does not cover a window simply
// contribute no fingerprint for it; in Joint mode a missing component
// suppresses the whole composite key.
func Extract(src WindowSource, cfg Config) []Fingerprint {
	return ExtractInto(nil, src, cfg)
}

// ExtractInto appends all fingerprints of the source under the
// configuration to dst and returns the extended slice, reusing dst's
// capacity. Streaming and batch callers that recognize many executions
// can pass the previous call's slice (re-sliced to length zero) to
// avoid re-allocating the fingerprint array; window key strings are
// computed once per call rather than once per (metric, node) probe.
//
// Note that recognition itself does not go through Fingerprint
// construction at all — Dictionary.Recognize and Recognizer extract
// interned keys into byte buffers instead. ExtractInto is the public
// boundary for callers that want the fingerprints themselves; it
// renders the same extraction walk (extractRawInto) the interned paths
// consume, so order and keys never diverge between the two forms.
func ExtractInto(dst []Fingerprint, src WindowSource, cfg Config) []Fingerprint {
	winKeys := make([]string, len(cfg.Windows))
	for i, w := range cfg.Windows {
		winKeys[i] = w.Key()
	}
	var re rawExec
	extractRawInto(&re, src, cfg.Metrics, cfg.Windows, cfg.Joint)
	jointMetric := ""
	if cfg.Joint {
		jointMetric = strings.Join(cfg.Metrics, "+")
	}
	var buf []byte
	for _, fp := range re.fps {
		buf = buf[:0]
		for c := int32(0); c < fp.n; c++ {
			if c > 0 {
				buf = append(buf, '|')
			}
			buf = stats.AppendRoundedKey(buf, re.means[fp.off+c], cfg.Depth)
		}
		metric := jointMetric
		if !cfg.Joint {
			metric = cfg.Metrics[fp.metric]
		}
		dst = append(dst, Fingerprint{
			Metric: metric,
			Node:   int(fp.node),
			Window: winKeys[fp.window],
			Key:    string(buf),
		})
	}
	return dst
}
