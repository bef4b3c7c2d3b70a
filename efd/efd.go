// Package efd is the public API of the Execution Fingerprint Dictionary
// library, a reproduction of "An Execution Fingerprint Dictionary for
// HPC Application Recognition" (Jakobsche et al., IEEE CLUSTER 2021).
//
// The EFD recognizes repeated executions of HPC applications the way
// Shazam recognizes songs: it stores execution fingerprints — rounded
// means of a system metric per node over a fixed time interval — as
// dictionary keys mapped to application labels, and recognizes an
// unlabelled execution by looking its fingerprints up and returning the
// most-matched application.
//
// Quick start:
//
//	ds, _ := efd.GenerateDataset(efd.DefaultDatasetConfig())
//	train, test := ds.Split(0.8, 1)
//	dict, report, _ := efd.Train(train, efd.DefaultTrainConfig())
//	for _, exec := range test.Executions {
//		res := dict.Recognize(efd.SourceOf(exec))
//		fmt.Println(exec.Label, "->", res.Top())
//	}
//
// Performance: recognition is a hash lookup over interned integer keys
// — on a warmed dictionary, a reused Recognizer (dict.NewRecognizer())
// answers in well under 2 µs per execution with zero allocations, and
// streaming Feed is allocation-free per sample. Training
// cross-validates the rounding depth from one key index per candidate
// depth, on a worker pool over depths (TrainConfig.Workers;
// 0 = GOMAXPROCS), with results byte-identical at any worker count.
// Dictionary.Recognize is the convenience form for one-off calls;
// batch and service callers should hold a Recognizer (one per
// goroutine).
//
// Concurrency: a Dictionary is single-writer. Read-only use
// (recognition, lookup, stats) is safe from any number of goroutines;
// to mix online learning with live recognition, wrap the dictionary
// with Share and route reads through SharedDictionary.Read and
// mutation through SharedDictionary.Write/Learn — the pattern the
// efdd monitoring daemon uses to learn completed jobs while serving
// recognition polls.
//
// # The public API, in layers
//
// This module exposes the always-on monitoring system as three
// packages, one per deployment shape:
//
//   - efd (this package): the library core — datasets, training,
//     offline and streaming recognition, evaluation, the paper's
//     experiment protocols.
//   - efd/monitor: the embeddable monitoring engine. monitor.New
//     wraps a trained dictionary in a sharded, concurrent job table
//     with the full job lifecycle (Register → Ingest → Result →
//     Label/Close), columnar batch ingest, and an optional durable
//     telemetry store (OpenStore) with WAL-backed crash recovery and
//     re-recognizable stored executions. Use it to run a monitor
//     inside your own process.
//   - efd/client: the typed SDK for the efdd daemon's v1 HTTP API
//     (documented in API.md), with connection reuse, retrying
//     idempotent calls, a size/interval-flushing BatchWriter, and a
//     binary columnar ingest encoding that round-trips
//     float64 telemetry bit-exactly at a fraction of JSON's cost.
//
// The efdd daemon itself (cmd/efdd) is a thin HTTP adapter
// (internal/server) over exactly the efd/monitor engine, so embedded
// and remote deployments behave identically.
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable surface a downstream user needs: dataset
// generation (a synthetic stand-in for the Taxonomist telemetry
// artifact), dictionary training with rounding-depth selection,
// offline and streaming recognition, evaluation metrics, and the
// paper's experiment protocols.
package efd

import (
	"io"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// Re-exported core types. See the internal/core package for full
// documentation of each.
type (
	// Dictionary is the execution fingerprint dictionary.
	Dictionary = core.Dictionary
	// Fingerprint is a dictionary key.
	Fingerprint = core.Fingerprint
	// Config selects fingerprint construction (metrics, windows,
	// rounding depth, joint mode).
	Config = core.Config
	// TrainConfig controls training, including rounding-depth
	// cross-validation.
	TrainConfig = core.FitConfig
	// TrainReport describes the selected rounding depth.
	TrainReport = core.FitReport
	// Result is a recognition outcome.
	Result = core.Result
	// Recognizer performs recognitions through reused scratch buffers
	// — the zero-allocation batch/service path. One per goroutine.
	Recognizer = core.Recognizer
	// SharedDictionary is the read/write concurrency contract for
	// serving one dictionary to many goroutines: concurrent
	// recognition, exclusive online learning. See Share.
	SharedDictionary = core.SharedDictionary
	// Stream recognizes executions online as telemetry arrives.
	Stream = core.Stream
	// WindowSource yields window means for fingerprinting.
	WindowSource = core.WindowSource

	// Dataset is a labelled collection of executions.
	Dataset = dataset.Dataset
	// Execution is one labelled run.
	Execution = dataset.Execution
	// DatasetConfig describes synthetic dataset generation.
	DatasetConfig = dataset.GenConfig

	// Label is an (application, input size) pair.
	Label = apps.Label
	// Input is a problem size (X, Y, Z or L).
	Input = apps.Input

	// Window is a half-open time interval of an execution.
	Window = telemetry.Window

	// Report is a classification report (precision/recall/F-score).
	Report = eval.Report
	// Pair is one (truth, prediction) outcome.
	Pair = eval.Pair

	// Harness runs the paper's five evaluation protocols.
	Harness = experiments.Harness
	// Score is one protocol outcome.
	Score = experiments.Score
)

// Unknown is the class reported when no fingerprint matches.
const Unknown = core.Unknown

// HeadlineMetric is the single system metric of the paper's headline
// result: nr_mapped_vmstat.
const HeadlineMetric = apps.HeadlineMetric

// PaperWindow is the paper's fingerprint interval, [60:120] seconds
// into the execution.
var PaperWindow = telemetry.PaperWindow

// NewDictionary returns an empty dictionary with the given fingerprint
// configuration.
func NewDictionary(cfg Config) (*Dictionary, error) { return core.NewDictionary(cfg) }

// DefaultConfig is the paper's headline fingerprint configuration at
// the given rounding depth.
func DefaultConfig(depth int) Config { return core.DefaultConfig(depth) }

// DefaultTrainConfig is the paper's headline training configuration:
// single metric, [60:120] window, depth selected from 1–6 by 5-fold
// cross-validation within the training set.
func DefaultTrainConfig() TrainConfig { return core.DefaultFitConfig() }

// Train learns a dictionary from the training set, selecting the
// rounding depth by cross-validation.
func Train(train *Dataset, cfg TrainConfig) (*Dictionary, TrainReport, error) {
	return core.Fit(train, cfg)
}

// Build constructs a dictionary at a fixed rounding depth without
// tuning.
func Build(ds *Dataset, cfg Config) (*Dictionary, error) { return core.Build(ds, cfg) }

// Load reads a dictionary previously written by Dictionary.Save,
// including its configuration (metrics, windows, depth, joint mode).
func Load(r io.Reader) (*Dictionary, error) { return core.Load(r) }

// SourceOf adapts a dataset execution to the WindowSource interface
// consumed by Dictionary.Recognize.
func SourceOf(e *Execution) WindowSource { return core.Source(e) }

// NewStream returns an online recognizer against the dictionary for an
// execution on the given number of nodes.
func NewStream(d *Dictionary, nodes int) *Stream { return core.NewStream(d, nodes) }

// Share wraps a dictionary in the read/write concurrency contract:
// any number of concurrent Read sections (recognition, stats, save)
// run in parallel, while Write sections (online Learn) are exclusive.
// Services that label completed executions back into a live dictionary
// must route all access through the shared wrapper.
func Share(d *Dictionary) *SharedDictionary { return core.Share(d) }

// Classify recognizes every execution of the dataset and returns
// (truth, prediction) pairs with application-name truths.
func Classify(d *Dictionary, ds *Dataset) []Pair { return core.Classify(d, ds) }

// Evaluate computes a classification report over outcomes.
func Evaluate(pairs []Pair) (Report, error) { return eval.Evaluate(pairs) }

// F1Macro returns the macro-averaged F-score of the outcomes — the
// paper's headline measure.
func F1Macro(pairs []Pair) float64 { return eval.F1Macro(pairs) }

// DefaultDatasetConfig is the paper's primary data grid (Table 2): all
// eleven applications, four node jobs, thirty repeats per
// (application, input) pair, default cluster noise.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultGenConfig() }

// GenerateDataset builds a synthetic dataset with the same structure as
// the Taxonomist telemetry artifact the paper evaluates on.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// NewHarness returns an experiment harness with the paper's defaults
// over the dataset.
func NewHarness(ds *Dataset) *Harness { return experiments.NewHarness(ds) }

// Applications lists the eleven modelled application names.
func Applications() []string { return apps.Names() }

// MetricNames lists the modelled system metrics.
func MetricNames() []string { return apps.MetricNames() }

// Split partitions a dataset into train and test subsets with
// stratified sampling: approximately trainFrac of each label's
// executions land in the training set. The seed makes the split
// reproducible.
func Split(ds *Dataset, trainFrac float64, seed int64) (train, test *Dataset) {
	byLabel := make(map[Label][]int)
	for i, e := range ds.Executions {
		byLabel[e.Label] = append(byLabel[e.Label], i)
	}
	labels := make([]Label, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	apps.SortLabels(labels)
	rng := rand.New(rand.NewSource(seed))
	var trainIdx, testIdx []int
	for _, l := range labels {
		idx := byLabel[l]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(float64(len(idx))*trainFrac + 0.5)
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	return ds.Subset(trainIdx), ds.Subset(testIdx)
}
