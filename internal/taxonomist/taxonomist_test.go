package taxonomist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/dataset"
)

// xorishData builds a small, cleanly separable 2-class problem.
func separable(n int, rng *rand.Rand) []FeatureVector {
	out := make([]FeatureVector, 0, n*2)
	for i := 0; i < n; i++ {
		out = append(out, FeatureVector{
			Values: []float64{rng.NormFloat64() + 0, rng.NormFloat64() + 0},
			App:    "low",
		})
		out = append(out, FeatureVector{
			Values: []float64{rng.NormFloat64() + 10, rng.NormFloat64() + 10},
			App:    "high",
		})
	}
	return out
}

func TestTreeLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := TrainTree(separable(100, rng), TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := predictTree(tr, []float64{-0.5, 0.2}); got != "low" {
		t.Errorf("Predict(low point) = %q", got)
	}
	if got := predictTree(tr, []float64{10.5, 9.7}); got != "high" {
		t.Errorf("Predict(high point) = %q", got)
	}
	if depthOf(tr.root) < 1 {
		t.Error("tree should have split at least once")
	}
	if leavesOf(tr.root) < 2 {
		t.Error("tree should have at least two leaves")
	}
}

func TestTreeProbaSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, err := TrainTree(separable(50, rng), TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		p := tr.Proba([]float64{a, b})
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTreeRejectsBadInput(t *testing.T) {
	if _, err := TrainTree(nil, TreeConfig{}, nil); err == nil {
		t.Error("empty training set should fail")
	}
	bad := []FeatureVector{
		{Values: []float64{1}, App: "a"},
		{Values: []float64{1, 2}, App: "b"},
	}
	if _, err := TrainTree(bad, TreeConfig{}, nil); err == nil {
		t.Error("inconsistent widths should fail")
	}
	unlabelled := []FeatureVector{{Values: []float64{1}}}
	if _, err := TrainTree(unlabelled, TreeConfig{}, nil); err == nil {
		t.Error("unlabelled examples should fail")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := TrainTree(separable(100, rng), TreeConfig{MaxDepth: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tr.root) > 1 {
		t.Errorf("Depth = %d, want <= 1", depthOf(tr.root))
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	examples := separable(30, rng)
	tr, err := TrainTree(examples, TreeConfig{MinLeaf: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 10 on 60 examples, at most 6 leaves are possible.
	if leavesOf(tr.root) > 6 {
		t.Errorf("Leaves = %d with MinLeaf 10", leavesOf(tr.root))
	}
}

func TestTreePureInputMakesLeaf(t *testing.T) {
	examples := []FeatureVector{
		{Values: []float64{1, 2}, App: "only"},
		{Values: []float64{3, 4}, App: "only"},
	}
	tr, err := TrainTree(examples, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tr.root) != 0 {
		t.Errorf("pure class should yield a single leaf, depth %d", depthOf(tr.root))
	}
	if got := predictTree(tr, []float64{99, -99}); got != "only" {
		t.Errorf("Predict = %q", got)
	}
}

func TestTreeConstantFeaturesMakeLeaf(t *testing.T) {
	// Identical feature vectors with different labels: no split is
	// possible; the tree must terminate (not recurse forever).
	examples := []FeatureVector{
		{Values: []float64{5, 5}, App: "a"},
		{Values: []float64{5, 5}, App: "b"},
	}
	tr, err := TrainTree(examples, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tr.root) != 0 {
		t.Errorf("unsplittable data should yield a leaf, depth %d", depthOf(tr.root))
	}
}

func TestForestOnDataset(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg", "cg"}
	cfg.Repeats = 6
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric, "Committed_AS_meminfo", "Active_meminfo"}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fvs, names, err := Extract(ds, FeatureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 metrics × 11 stats.
	if len(names) != 33 {
		t.Fatalf("feature names = %d, want 33", len(names))
	}
	if len(fvs) != ds.Len()*4 {
		t.Fatalf("examples = %d, want %d (per node)", len(fvs), ds.Len()*4)
	}
	fcfg := DefaultForestConfig()
	fcfg.Trees = 20
	forest, err := TrainForest(fvs, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.trees) != 20 {
		t.Errorf("Trees = %d", len(forest.trees))
	}
	preds := forest.PredictBatch(fvs)
	correct := 0
	for i, p := range preds {
		if p == fvs[i].App {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(preds)); acc < 0.95 {
		t.Errorf("training accuracy = %v, want >= 0.95", acc)
	}
}

func TestForestUnknownDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fcfg := DefaultForestConfig()
	fcfg.Trees = 30
	forest, err := TrainForest(separable(100, rng), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	// A point far from both classes: trees will disagree little
	// (nearest leaf wins), so force a high threshold to see Unknown.
	if err := forest.SetThreshold(0.99); err != nil {
		t.Fatal(err)
	}
	mid := forest.Predict([]float64{5, 5})
	if mid != Unknown {
		t.Logf("midpoint prediction %q (threshold may still pass)", mid)
	}
	// Threshold 0 disables unknown detection entirely.
	if err := forest.SetThreshold(0); err != nil {
		t.Fatal(err)
	}
	if got := forest.Predict([]float64{5, 5}); got == Unknown {
		t.Error("threshold 0 should never return Unknown")
	}
	if err := forest.SetThreshold(1.5); err == nil {
		t.Error("threshold > 1 should be rejected")
	}
}

func TestForestDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	examples := separable(60, rng)
	cfgA := ForestConfig{Trees: 10, Seed: 9, Parallel: true}
	cfgB := ForestConfig{Trees: 10, Seed: 9, Parallel: false}
	fa, err := TrainForest(examples, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := TrainForest(examples, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0, 0}, {10, 10}, {5, 5}, {3, 8}}
	for _, p := range probe {
		pa, pb := fa.Proba(p), fb.Proba(p)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("parallel and sequential forests diverge at %v: %v vs %v", p, pa, pb)
			}
		}
	}
}

// TestPredictBatchMatchesPredict compares PredictBatch with one Predict
// per vector at batch sizes around the 64-vector span minimum and the
// span boundaries of the pool.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	examples := separable(150, rng)
	forest, err := TrainForest(examples[:100], ForestConfig{Trees: 10, Seed: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := forest.SetThreshold(0.9); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 300} {
		batch := examples[:n]
		got := forest.PredictBatch(batch)
		if len(got) != n {
			t.Fatalf("batch %d: %d predictions", n, len(got))
		}
		for i, fv := range batch {
			if want := forest.Predict(fv.Values); got[i] != want {
				t.Fatalf("batch %d: prediction %d = %q, Predict gives %q", n, i, got[i], want)
			}
		}
	}
}

// TestForestProbaAlignsClasses trains a forest on a rare class: several
// bootstrap samples miss b, and those trees must still vote for the
// classes they saw. A point deep in c's region is c for every tree, so
// the forest is certain of it at any threshold.
func TestForestProbaAlignsClasses(t *testing.T) {
	var examples []FeatureVector
	for i := 0; i < 20; i++ {
		examples = append(examples, FeatureVector{Values: []float64{float64(i) * 0.1}, App: "a"})
	}
	examples = append(examples, FeatureVector{Values: []float64{50}, App: "b"})
	for i := 0; i < 20; i++ {
		examples = append(examples, FeatureVector{Values: []float64{100 + float64(i)*0.1}, App: "c"})
	}
	forest, err := TrainForest(examples, ForestConfig{Trees: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x    float64
		want []float64
	}{
		{0.5, []float64{1, 0, 0}},
		{100.5, []float64{0, 0, 1}},
	} {
		if got := forest.Proba([]float64{tc.x}); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Proba(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if err := forest.SetThreshold(0.7); err != nil {
		t.Fatal(err)
	}
	if got := forest.Predict([]float64{100.5}); got != "c" {
		t.Errorf("Predict(100.5) at threshold 0.7 = %q, want c", got)
	}
}

func TestExtractErrorsOnMissingMetric(t *testing.T) {
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft"}
	cfg.Repeats = 2
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Extract(ds, FeatureConfig{Metrics: []string{"absent_metric"}}); err == nil {
		t.Error("extracting an absent metric should fail")
	}
}

func TestFeatureNamesFor(t *testing.T) {
	names := FeatureNamesFor([]string{"m1", "m2"})
	if len(names) != 22 {
		t.Fatalf("names = %d", len(names))
	}
	if names[0] != "m1:min" || names[11] != "m2:min" || names[21] != "m2:p95" {
		t.Errorf("name layout: %v", names)
	}
}

// predictTree returns the majority class of the leaf the vector falls
// into.
func predictTree(t *Tree, values []float64) string {
	probs := t.Proba(values)
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return t.classes[best]
}

// depthOf reports the height of the subtree (a single leaf has depth
// 0).
func depthOf(n *node) int {
	if n == nil || n.counts != nil {
		return 0
	}
	return max(depthOf(n.left), depthOf(n.right)) + 1
}

// leavesOf reports the number of leaf nodes of the subtree.
func leavesOf(n *node) int {
	if n == nil {
		return 0
	}
	if n.counts != nil {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}
