package taxonomist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TreeConfig controls CART decision-tree induction.
type TreeConfig struct {
	// MaxDepth bounds tree height; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of examples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of candidate features examined per
	// split; 0 examines all (a plain CART tree), otherwise a random
	// subset is drawn per node (the random-forest setting).
	MaxFeatures int
}

// node is one tree node; leaves carry class counts, internal nodes a
// threshold split.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	// counts is nil for internal nodes; for leaves it holds per-class
	// training counts (indexing the tree's class table).
	counts []int
	total  int
}

// Tree is a trained CART decision tree over dense feature vectors.
type Tree struct {
	root    *node
	classes []string
	nFeat   int
}

// trainingSet bundles the induction inputs.
type trainingSet struct {
	vectors []FeatureVector
	classes []string
	classIx map[string]int
}

func newTrainingSet(examples []FeatureVector) (*trainingSet, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("taxonomist: no training examples")
	}
	width := len(examples[0].Values)
	classSet := make(map[string]bool)
	for _, e := range examples {
		if len(e.Values) != width {
			return nil, fmt.Errorf("taxonomist: inconsistent feature widths %d vs %d",
				len(e.Values), width)
		}
		if e.App == "" {
			return nil, fmt.Errorf("taxonomist: unlabelled training example (exec %d node %d)",
				e.ExecID, e.Node)
		}
		classSet[e.App] = true
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	ix := make(map[string]int, len(classes))
	for i, c := range classes {
		ix[c] = i
	}
	return &trainingSet{vectors: examples, classes: classes, classIx: ix}, nil
}

// TrainTree induces a CART tree with Gini-impurity splits. rng is used
// only when cfg.MaxFeatures > 0 (feature subsampling); pass nil for
// deterministic full-feature trees.
func TrainTree(examples []FeatureVector, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	ts, err := newTrainingSet(examples)
	if err != nil {
		return nil, err
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, len(ts.vectors))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{classes: ts.classes, nFeat: len(ts.vectors[0].Values)}
	t.root = grow(ts, idx, cfg, rng, 0)
	return t, nil
}

// grow recursively builds the subtree over the examples at idx.
func grow(ts *trainingSet, idx []int, cfg TreeConfig, rng *rand.Rand, depth int) *node {
	counts := make([]int, len(ts.classes))
	for _, i := range idx {
		counts[ts.classIx[ts.vectors[i].App]]++
	}
	n := &node{counts: counts, total: len(idx)}
	if pure(counts) || len(idx) < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return n
	}
	feat, thr, ok := bestSplit(ts, idx, counts, cfg, rng)
	if !ok {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if ts.vectors[i].Values[feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return n
	}
	n.feature = feat
	n.threshold = thr
	n.left = grow(ts, left, cfg, rng, depth+1)
	n.right = grow(ts, right, cfg, rng, depth+1)
	n.counts = nil
	return n
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// gini computes the Gini impurity of the class counts.
func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

// bestSplit finds the (feature, threshold) pair with the lowest
// weighted child impurity over the candidate features.
func bestSplit(ts *trainingSet, idx []int, parentCounts []int, cfg TreeConfig, rng *rand.Rand) (int, float64, bool) {
	nFeat := len(ts.vectors[0].Values)
	features := make([]int, nFeat)
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nFeat {
		if rng == nil {
			rng = rand.New(rand.NewSource(0))
		}
		rng.Shuffle(nFeat, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.MaxFeatures]
	}

	bestGain := 1e-12
	bestFeat, bestThr, found := 0, 0.0, false
	parentGini := gini(parentCounts, len(idx))

	type fv struct {
		v float64
		c int // class index
	}
	buf := make([]fv, len(idx))
	leftCounts := make([]int, len(ts.classes))

	for _, f := range features {
		for bi, i := range idx {
			buf[bi] = fv{v: ts.vectors[i].Values[f], c: ts.classIx[ts.vectors[i].App]}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].v < buf[b].v })
		for k := range leftCounts {
			leftCounts[k] = 0
		}
		total := len(buf)
		for pos := 0; pos < total-1; pos++ {
			leftCounts[buf[pos].c]++
			if buf[pos].v == buf[pos+1].v {
				continue // cannot split between equal values
			}
			nl := pos + 1
			nr := total - nl
			gl := gini(leftCounts, nl)
			rightCounts := make([]int, len(leftCounts))
			for k := range rightCounts {
				rightCounts[k] = parentCounts[k] - leftCounts[k]
			}
			gr := gini(rightCounts, nr)
			weighted := (float64(nl)*gl + float64(nr)*gr) / float64(total)
			gain := parentGini - weighted
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				// Midpoint threshold, robust to ties.
				bestThr = (buf[pos].v + buf[pos+1].v) / 2
				if math.IsInf(bestThr, 0) || math.IsNaN(bestThr) {
					continue
				}
				found = true
			}
		}
	}
	return bestFeat, bestThr, found
}

// Proba returns per-class leaf frequencies for the vector, indexed like
// the tree's class table.
func (t *Tree) Proba(values []float64) []float64 {
	n := t.root
	for n.counts == nil {
		if values[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	out := make([]float64, len(t.classes))
	if n.total == 0 {
		return out
	}
	for i, c := range n.counts {
		out[i] = float64(c) / float64(n.total)
	}
	return out
}
