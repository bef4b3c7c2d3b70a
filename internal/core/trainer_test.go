package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dataset"
)

// TestTrainerFitMatchesFit holds a Trainer's Fit of a subset to Fit of
// that subset alone: the reports must be deeply equal (DepthScores bit
// for bit) and the dictionaries must save to the same bytes. The
// subsets are those the evaluation protocols fit: an outer fold's
// training set, a set without one input size or one application, the
// whole dataset, plus one small enough to take the fallback depth and
// one that keeps the keyless executions of oracleDataset.
func TestTrainerFitMatchesFit(t *testing.T) {
	ds := oracleDataset(t)
	folds, err := ds.KFold(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[apps.Label]bool)
	subsets := []struct {
		name  string
		train *dataset.Dataset
	}{
		{"outer fold", ds.Subset(folds[2].Train)},
		{"without input", ds.Subset(folds[0].Train).WithoutInput(apps.InputY)},
		{"without app", ds.WithoutApp("sp")},
		{"whole dataset", ds},
		{"one per label", ds.Filter(func(e *dataset.Execution) bool {
			if seen[e.Label] {
				return false
			}
			seen[e.Label] = true
			return true
		})},
		{"keyless", ds.Filter(func(e *dataset.Execution) bool { return e.ID < 6 || e.ID%3 == 0 })},
		{"reordered", ds.Subset(rand.New(rand.NewSource(5)).Perm(ds.Len())[:ds.Len()/2])},
	}
	configs := []struct {
		name string
		set  func(*FitConfig)
	}{
		{"headline", func(*FitConfig) {}},
		{"metrics", func(c *FitConfig) { c.Metrics = oracleMetrics }},
		{"metrics joint", func(c *FitConfig) { c.Metrics, c.Joint = oracleMetrics[:2], true }},
		{"unsorted depths", func(c *FitConfig) { c.Depths = []int{5, 2, 4, 1} }},
	}
	for _, c := range configs {
		for _, workers := range []int{1, 8} {
			cfg := DefaultFitConfig()
			cfg.Seed = 3
			cfg.Workers = workers
			c.set(&cfg)
			tr, err := NewTrainer(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subsets {
				want, wantRep, err := Fit(sub.train, cfg)
				if err != nil {
					t.Fatalf("%s workers %d %s: Fit: %v", c.name, workers, sub.name, err)
				}
				got, rep, err := tr.Fit(sub.train)
				if err != nil {
					t.Fatalf("%s workers %d %s: Trainer.Fit: %v", c.name, workers, sub.name, err)
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Errorf("%s workers %d %s: report %+v, Fit %+v", c.name, workers, sub.name, rep, wantRep)
				}
				if !bytes.Equal(saved(t, got), saved(t, want)) {
					t.Errorf("%s workers %d %s: saved dictionary differs from Fit's", c.name, workers, sub.name)
				}
			}
		}
	}
	// The cases above must reach the fallback and keyless executions.
	if _, rep, _ := Fit(subsets[4].train, DefaultFitConfig()); rep.Folds != 0 {
		t.Errorf("one per label cross-validated over %d folds, want the fallback depth", rep.Folds)
	}
	keyless := 0
	for _, e := range subsets[5].train.Executions {
		if len(extractRaw(Source(e), oracleMetrics, DefaultFitConfig().Windows, false).fps) == 0 {
			keyless++
		}
	}
	if keyless == 0 {
		t.Error("the keyless subset has no keyless execution")
	}
}

// TestTrainerFitRejectsForeignExecutions checks that a training set
// holding an execution outside the trainer's dataset is an error, also
// when the outsider is a copy with the ID of an execution inside.
func TestTrainerFitRejectsForeignExecutions(t *testing.T) {
	ds := smallDataset(t)
	tr, err := NewTrainer(ds.WithoutApp("ft"), DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	copied := *ds.WithoutApp("ft").Executions[3]
	for name, train := range map[string]*dataset.Dataset{
		"other app": ds,
		"copy":      {Windows: ds.Windows, Executions: append(ds.WithoutApp("ft").Executions[:3:3], &copied)},
	} {
		if _, _, err := tr.Fit(train); err == nil || !strings.Contains(err.Error(), "not in the trainer's dataset") {
			t.Errorf("%s: Trainer.Fit error = %v, want an execution not in the trainer's dataset", name, err)
		}
	}
	if _, _, err := tr.Fit(&dataset.Dataset{}); err == nil {
		t.Error("Trainer.Fit of an empty training set succeeded")
	}
}
