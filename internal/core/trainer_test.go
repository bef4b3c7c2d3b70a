package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// TestTrainerRejectsEmptyTrainingSet checks that Classify of no
// training rows is an error, as Fit of an empty dataset is.
func TestTrainerRejectsEmptyTrainingSet(t *testing.T) {
	ds := smallDataset(t)
	tr, err := NewTrainer(ds, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, train := range [][]int{nil, {}} {
		if _, _, err := tr.Classify(train, []int{0, 1}); err == nil {
			t.Errorf("Trainer.Classify with training rows %v succeeded", train)
		}
	}
}

// TestTrainerClassifyMatchesFit holds a Trainer's Classify to the
// dictionary path: for each training row list of trainingRows and each
// test row list, the pairs must deeply equal those ClassifyWorkers
// gives for the test rows' subset with Fit's dictionary of the
// training rows' subset, and the report Fit's. The test rows are the
// complement of the training rows, the training rows themselves, every
// row, rows with keyless executions, and rows holding the applications
// the training rows lack. A second dataset names one application
// Unknown. The training rows must reach Fit's fallback depth and
// keyless executions.
func TestTrainerClassifyMatchesFit(t *testing.T) {
	ds := oracleDataset(t)
	renamed := &dataset.Dataset{Windows: ds.Windows}
	for _, e := range ds.Executions {
		c := *e
		if c.Label.App == "mg" {
			c.Label.App = Unknown
		}
		renamed.Executions = append(renamed.Executions, &c)
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
	reached := make(map[string]bool)
	for _, data := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"oracle", ds}, {"app named unknown", renamed}} {
		all := rowsWhere(data.ds, func(*dataset.Execution) bool { return true })
		for _, sub := range trainingRows(t, data.ds) {
			in := make(map[int]bool)
			trainApps := make(map[string]bool)
			for _, i := range sub.train {
				in[i], trainApps[data.ds.Executions[i].Label.App] = true, true
			}
			tests := []struct {
				name string
				test []int
			}{
				{"complement", slices.DeleteFunc(slices.Clone(all), func(i int) bool { return in[i] })},
				{"train", sub.train},
				{"whole dataset", all},
				{"keyless", rowsWhere(data.ds, func(e *dataset.Execution) bool { return e.ID < 6 || e.ID%5 == 0 })},
				{"absent apps", rowsWhere(data.ds, func(e *dataset.Execution) bool { return !trainApps[e.Label.App] || e.ID%4 == 0 })},
			}
			for _, c := range configs {
				for _, workers := range []int{1, 8} {
					cfg := DefaultFitConfig()
					cfg.Seed = 3
					cfg.Workers = workers
					c.set(&cfg)
					tr, err := NewTrainer(data.ds, cfg)
					if err != nil {
						t.Fatal(err)
					}
					d, wantRep, err := Fit(data.ds.Subset(sub.train), cfg)
					if err != nil {
						t.Fatalf("%s %s workers %d %s: Fit: %v", data.name, c.name, workers, sub.name, err)
					}
					reached["fallback depth"] = reached["fallback depth"] || wantRep.Folds == 0
					for _, tc := range tests {
						at := fmt.Sprintf("%s %s workers %d train %s test %s", data.name, c.name, workers, sub.name, tc.name)
						want := ClassifyWorkers(d, data.ds.Subset(tc.test), workers)
						got, rep, err := tr.Classify(sub.train, tc.test)
						if err != nil {
							t.Fatalf("%s: Classify: %v", at, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: pairs differ from ClassifyWorkers of Fit's dictionary:\n got %v\nwant %v", at, got, want)
						}
						if !reflect.DeepEqual(rep, wantRep) {
							t.Errorf("%s: report %+v, Fit %+v", at, rep, wantRep)
						}
						for _, p := range want {
							reached["unknown prediction"] = reached["unknown prediction"] || p.Pred == Unknown
							reached["absent app tested"] = reached["absent app tested"] || !trainApps[p.Truth]
						}
					}
				}
			}
		}
	}
	for _, sub := range trainingRows(t, ds) {
		var re rawExec
		for _, i := range sub.train {
			extractRawInto(&re, Source(ds.Executions[i]), oracleMetrics, DefaultFitConfig().Windows, false)
			reached["keyless training execution"] = reached["keyless training execution"] || len(re.fps) == 0
		}
	}
	for _, r := range []string{"unknown prediction", "absent app tested", "fallback depth", "keyless training execution"} {
		if !reached[r] {
			t.Errorf("no case reached %s", r)
		}
	}
}

// trainingRows returns the training row lists of the Trainer tests
// over ds, those the evaluation protocols fit: an outer fold's
// training rows, those rows without one input size, every row without
// one application, and every row; plus one row per label, few enough
// to take the fallback depth, rows that keep the keyless executions of
// oracleDataset, and half the rows in random order.
func trainingRows(t *testing.T, ds *dataset.Dataset) []struct {
	name  string
	train []int
} {
	folds, err := ds.KFold(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[apps.Label]bool)
	return []struct {
		name  string
		train []int
	}{
		{"outer fold", folds[2].Train},
		{"without input", slices.DeleteFunc(slices.Clone(folds[0].Train), func(i int) bool {
			return ds.Executions[i].Label.Input == apps.InputY
		})},
		{"without app", rowsWhere(ds, func(e *dataset.Execution) bool { return e.Label.App != "sp" })},
		{"whole dataset", rowsWhere(ds, func(*dataset.Execution) bool { return true })},
		{"one per label", rowsWhere(ds, func(e *dataset.Execution) bool {
			if seen[e.Label] {
				return false
			}
			seen[e.Label] = true
			return true
		})},
		{"keyless", rowsWhere(ds, func(e *dataset.Execution) bool { return e.ID < 6 || e.ID%3 == 0 })},
		{"reordered", rand.New(rand.NewSource(5)).Perm(ds.Len())[:ds.Len()/2]},
	}
}

// rowsWhere returns the rows of ds whose executions keep accepts, in
// order.
func rowsWhere(ds *dataset.Dataset, keep func(*dataset.Execution) bool) []int {
	var rows []int
	for i, e := range ds.Executions {
		if keep(e) {
			rows = append(rows, i)
		}
	}
	return rows
}

// TestGridTallyIsF1Macro holds the grid's integer tally to eval over
// random recognitions: appIndex.macroF1 of the counts must equal
// eval.F1Macro of the same pairs bit for bit, and each class's counts
// and eval.ClassScores F1 must equal those of Evaluate's report. The
// draws cover Unknown predictions, an application named Unknown (whose
// class Unknown predictions count for, as Evaluate compares names), a
// class that is only predicted, and no recognitions at all.
func TestGridTallyIsF1Macro(t *testing.T) {
	reached := make(map[string]bool)
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"ft", "mg", "sp", "bt", "miniAMR", "CoMD"}
		if rng.Intn(2) == 0 {
			names = append(names, Unknown)
		}
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		ds := &dataset.Dataset{}
		for _, n := range names {
			ds.Executions = append(ds.Executions, &dataset.Execution{Label: apps.Label{App: n}})
		}
		ai := newAppIndex(ds)
		truths := 1 + rng.Intn(len(names)) // applications 0 to truths-1 are tested
		counts := make([]classCounts, len(names))
		var pairs []eval.Pair
		for range rng.Intn(4) * rng.Intn(12) {
			truth, pred := int32(rng.Intn(truths)), int32(rng.Intn(len(names)+2))-2
			if pred == -2 {
				pred = truth
			}
			ai.count(counts, truth, pred)
			p := eval.Pair{Truth: ai.names[truth], Pred: Unknown}
			if pred >= 0 {
				p.Pred = ai.names[pred]
			}
			pairs = append(pairs, p)
			reached["unknown prediction"] = reached["unknown prediction"] || pred < 0
			reached["app named unknown"] = reached["app named unknown"] || ai.unknown >= 0 && pred < 0
			reached["predicted only"] = reached["predicted only"] || pred >= int32(truths)
		}
		reached["no recognitions"] = reached["no recognitions"] || len(pairs) == 0
		if got, want := ai.macroF1(counts), eval.F1Macro(pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: tally macro F1 %v, eval.F1Macro %v of %v", seed, got, want, pairs)
		}
		rep, err := eval.Evaluate(pairs)
		if len(pairs) == 0 {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range rep.Classes {
			a := slices.Index(ai.names, cs.Class)
			if a < 0 {
				// Unknown with no application of that name: only
				// predicted, so outside the macro.
				if cs.Class != Unknown || cs.Support != 0 || cs.F1 != 0 {
					t.Fatalf("seed %d: class %+v has no application", seed, cs)
				}
				continue
			}
			c := counts[a]
			_, _, f1 := eval.ClassScores(int(c.tp), int(c.fp), int(c.fn))
			if int(c.tp) != cs.TP || int(c.fp) != cs.FP || int(c.fn) != cs.FN || int(c.support) != cs.Support ||
				math.Float64bits(f1) != math.Float64bits(cs.F1) {
				t.Fatalf("seed %d: class %s counts %+v F1 %v, Evaluate %+v", seed, cs.Class, c, f1, cs)
			}
		}
	}
	for _, r := range []string{"unknown prediction", "app named unknown", "predicted only", "no recognitions"} {
		if !reached[r] {
			t.Errorf("no draw reached %s", r)
		}
	}
}
