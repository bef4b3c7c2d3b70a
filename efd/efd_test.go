package efd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
)

func smallDS(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultDatasetConfig()
	cfg.Apps = []string{"ft", "mg", "cg"}
	cfg.Repeats = 6
	cfg.Cluster.Metrics = []string{HeadlineMetric}
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestQuickstartFlow(t *testing.T) {
	ds := smallDS(t)
	train, test := Split(ds, 0.75, 1)
	if train.Len()+test.Len() != ds.Len() {
		t.Fatalf("split sizes %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	if test.Len() == 0 || train.Len() == 0 {
		t.Fatal("degenerate split")
	}
	dict, report, err := Train(train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.BestDepth < 1 {
		t.Errorf("BestDepth = %d", report.BestDepth)
	}
	pairs := Classify(dict, test)
	if f := F1Macro(pairs); f < 0.9 {
		t.Errorf("holdout F1 = %v, want >= 0.9", f)
	}
	rep, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != test.Len() {
		t.Errorf("report total = %d", rep.Total)
	}
}

func TestSplitStratified(t *testing.T) {
	ds := smallDS(t)
	train, _ := Split(ds, 0.5, 7)
	perLabel := make(map[Label]int)
	for _, e := range train.Executions {
		perLabel[e.Label]++
	}
	for l, c := range perLabel {
		if c != 3 { // half of 6 repeats
			t.Errorf("label %v has %d training executions, want 3", l, c)
		}
	}
}

// TestSplitClampsFraction splits at fractions outside [0, 1] and at
// NaN: each is clamped, never a slice bound out of range.
func TestSplitClampsFraction(t *testing.T) {
	ds := smallDS(t)
	for _, tc := range []struct {
		frac      float64
		wantTrain int
	}{
		{-0.5, 0},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
		{0, 0},
		{1, ds.Len()},
		{1.5, ds.Len()},
		{math.Inf(1), ds.Len()},
	} {
		train, test := Split(ds, tc.frac, 1)
		if train.Len() != tc.wantTrain || test.Len() != ds.Len()-tc.wantTrain {
			t.Errorf("Split(%v): %d train + %d test, want %d + %d",
				tc.frac, train.Len(), test.Len(), tc.wantTrain, ds.Len()-tc.wantTrain)
		}
	}
}

// referenceSplit is Split as it was before it drew from
// dataset.Stratify: labels grouped by a map grown by append, sorted,
// and each group shuffled and cut in label order.
func referenceSplit(ds *Dataset, trainFrac float64, seed int64) (train, test *Dataset) {
	switch {
	case math.IsNaN(trainFrac) || trainFrac < 0:
		trainFrac = 0
	case trainFrac > 1:
		trainFrac = 1
	}
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

// TestSplitMatchesReference holds Split to referenceSplit over seeds
// and fractions, the clamped ones included, on labels of equal and of
// unequal sizes: the training and test sets must hold the same
// executions in the same order.
func TestSplitMatchesReference(t *testing.T) {
	ds := smallDS(t)
	uneven := ds.Filter(func(e *Execution) bool { return e.ID%7 != 0 && e.ID%11 != 3 })
	for _, d := range []*Dataset{ds, uneven} {
		for seed := int64(0); seed < 120; seed++ {
			for _, frac := range []float64{-0.5, 0, 0.2, 0.5, 0.8, 1, 1.5, math.NaN()} {
				train, test := Split(d, frac, seed)
				wantTrain, wantTest := referenceSplit(d, frac, seed)
				if !reflect.DeepEqual(train, wantTrain) || !reflect.DeepEqual(test, wantTest) {
					t.Fatalf("Split(%v, seed %d) of %d executions differs from the reference", frac, seed, d.Len())
				}
			}
		}
	}
}

func TestFacadeConstants(t *testing.T) {
	if HeadlineMetric != "nr_mapped_vmstat" {
		t.Errorf("HeadlineMetric = %q", HeadlineMetric)
	}
	if Unknown != "unknown" {
		t.Errorf("Unknown = %q", Unknown)
	}
	if PaperWindow.String() != "[60:120]" {
		t.Errorf("PaperWindow = %v", PaperWindow)
	}
	if len(Applications()) != 11 {
		t.Errorf("Applications = %d", len(Applications()))
	}
	if len(MetricNames()) < 40 {
		t.Errorf("MetricNames = %d", len(MetricNames()))
	}
}

func TestStreamingFacade(t *testing.T) {
	ds := smallDS(t)
	dict, _, err := Train(ds, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(dict, 4)
	if s.Complete() {
		t.Error("fresh stream complete")
	}
	_ = apps.InputX // keep the import honest: facade tests may refer to internals
}

func TestHarnessFacade(t *testing.T) {
	ds := smallDS(t)
	h := NewHarness(ds)
	score, err := h.NormalFold()
	if err != nil {
		t.Fatal(err)
	}
	if score.EFD < 0.9 {
		t.Errorf("normal fold = %v", score.EFD)
	}
}
