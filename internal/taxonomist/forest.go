package taxonomist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
	// Parallel trains member trees concurrently.
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
	trees     []*Tree
	classes   []string
	threshold float64
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

	f := &Forest{
		trees:     make([]*Tree, cfg.Trees),
		classes:   ts.classes,
		threshold: DefaultThreshold,
	}
	// Pre-draw independent seeds so the result is identical whether
	// training runs sequentially or in parallel.
	seeds := make([]int64, cfg.Trees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	trainOne := func(i int) error {
		rng := rand.New(rand.NewSource(seeds[i]))
		sample := make([]FeatureVector, len(examples))
		for j := range sample {
			sample[j] = examples[rng.Intn(len(examples))]
		}
		t, err := TrainTree(sample, treeCfg, rng)
		if err != nil {
			return err
		}
		f.trees[i] = t
		return nil
	}

	if !cfg.Parallel {
		for i := 0; i < cfg.Trees; i++ {
			if err := trainOne(i); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := trainOne(i); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < cfg.Trees; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return f, nil
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

// Proba averages member-tree class probabilities for the vector.
func (f *Forest) Proba(values []float64) []float64 {
	out := make([]float64, len(f.classes))
	classAt := make(map[string]int, len(f.classes))
	for i, c := range f.classes {
		classAt[c] = i
	}
	for _, t := range f.trees {
		p := t.Proba(values)
		// Trees trained on bootstrap samples of the same training set
		// share the class table, so indexes align.
		for i := range p {
			out[i] += p[i]
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

// PredictBatch classifies many vectors, in parallel when the batch is
// large.
func (f *Forest) PredictBatch(batch []FeatureVector) []string {
	out := make([]string, len(batch))
	if len(batch) < 64 {
		for i, fv := range batch {
			out[i] = f.Predict(fv.Values)
		}
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = f.Predict(batch[i].Values)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
