package taxonomist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// Tree configures the member trees. A MaxFeatures of 0 defaults to
	// sqrt(#features), the standard random-forest heuristic.
	Tree TreeConfig
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
	// Parallel trains member trees concurrently on the internal/par
	// pool, on GOMAXPROCS workers; false trains them one after another
	// on the calling goroutine.
	Parallel bool
}

// DefaultForestConfig mirrors the scikit-learn defaults Taxonomist
// used: 100 trees, sqrt-features, unbounded depth.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 100, Seed: 1, Parallel: true}
}

// Forest is a trained random-forest classifier with the
// confidence-threshold unknown detection of the Taxonomist paper: when
// the ensemble's top vote fraction falls below the threshold, the
// example is labelled Unknown.
type Forest struct {
	trees     []member
	classes   []string
	threshold float64
}

// member is one tree of a forest. A bootstrap sample can miss classes,
// so the tree's own class table can be shorter than the forest's;
// classIx holds the forest class index of each of its entries.
type member struct {
	tree    *Tree
	classIx []int
}

// Unknown is the label returned for low-confidence predictions,
// Taxonomist's mechanism for flagging applications it was not trained
// on.
const Unknown = "unknown"

// DefaultThreshold is the vote-fraction confidence below which a
// prediction is labelled Unknown.
const DefaultThreshold = 0.5

// TrainForest trains a random forest on the examples. Each tree is
// grown on a bootstrap resample with feature subsampling at every
// split.
func TrainForest(examples []FeatureVector, cfg ForestConfig) (*Forest, error) {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	ts, err := newTrainingSet(examples)
	if err != nil {
		return nil, err
	}
	treeCfg := cfg.Tree
	if treeCfg.MaxFeatures <= 0 {
		treeCfg.MaxFeatures = int(math.Sqrt(float64(len(examples[0].Values))))
		if treeCfg.MaxFeatures < 1 {
			treeCfg.MaxFeatures = 1
		}
	}
	if treeCfg.MinLeaf <= 0 {
		treeCfg.MinLeaf = 1
	}

	// Pre-draw independent seeds so the result is identical whether
	// training runs sequentially or in parallel.
	seeds := make([]int64, cfg.Trees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	workers := 1
	if cfg.Parallel {
		workers = 0
	}
	trees, err := par.Map(cfg.Trees, workers, func(i int) (member, error) {
		rng := rand.New(rand.NewSource(seeds[i]))
		sample := make([]FeatureVector, len(examples))
		for j := range sample {
			sample[j] = examples[rng.Intn(len(examples))]
		}
		t, err := TrainTree(sample, treeCfg, rng)
		if err != nil {
			return member{}, err
		}
		classIx := make([]int, len(t.classes))
		for j, c := range t.classes {
			classIx[j] = ts.classIx[c]
		}
		return member{tree: t, classIx: classIx}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Forest{trees: trees, classes: ts.classes, threshold: DefaultThreshold}, nil
}

// SetThreshold adjusts the unknown-detection confidence threshold in
// [0,1]. A threshold of 0 disables unknown detection.
func (f *Forest) SetThreshold(t float64) error {
	if t < 0 || t > 1 {
		return fmt.Errorf("taxonomist: threshold %v outside [0,1]", t)
	}
	f.threshold = t
	return nil
}

// Proba averages member-tree class probabilities for the vector,
// indexed like the forest's class table.
func (f *Forest) Proba(values []float64) []float64 {
	out := make([]float64, len(f.classes))
	for _, m := range f.trees {
		for j, p := range m.tree.Proba(values) {
			out[m.classIx[j]] += p
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

// Predict returns the ensemble prediction for the vector, or Unknown
// when the top class probability is below the confidence threshold.
func (f *Forest) Predict(values []float64) string {
	p := f.Proba(values)
	best, bestP := 0, -1.0
	for i, v := range p {
		if v > bestP {
			bestP = v
			best = i
		}
	}
	if bestP < f.threshold {
		return Unknown
	}
	return f.classes[best]
}

// PredictBatch classifies many vectors, on the internal/par pool in
// spans of at least 64 vectors.
func (f *Forest) PredictBatch(batch []FeatureVector) []string {
	out := make([]string, len(batch))
	par.Chunks(len(batch), 0, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Predict(batch[i].Values)
		}
	})
	return out
}
