package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

// smallDataset generates a fast labelled dataset shared by fit tests.
func smallDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg", "sp", "bt", "miniAMR"}
	cfg.Repeats = 8
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFitSelectsResolvingDepth(t *testing.T) {
	ds := smallDataset(t)
	d, rep, err := Fit(ds, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With SP and BT in the mix, depth 2 collides; cross-validation
	// must land on a depth that resolves them (the paper reports
	// depth 3 does).
	if rep.BestDepth < 3 {
		t.Errorf("BestDepth = %d, want >= 3 (SP/BT collide below)", rep.BestDepth)
	}
	if rep.DepthScores[rep.BestDepth] < rep.DepthScores[2] {
		t.Error("best depth should score at least as well as depth 2")
	}
	if rep.Folds < 2 {
		t.Errorf("Folds = %d", rep.Folds)
	}
	if d.Len() == 0 {
		t.Error("fitted dictionary is empty")
	}
	// Self-classification should be near perfect.
	pairs := Classify(d, ds)
	if f := eval.F1Macro(pairs); f < 0.95 {
		t.Errorf("training-set F1 = %v, want >= 0.95", f)
	}
}

func TestFitEmptyTrainingSet(t *testing.T) {
	if _, _, err := Fit(&dataset.Dataset{}, DefaultFitConfig()); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestFitTinyTrainingSetFallsBack(t *testing.T) {
	ds := smallDataset(t)
	// One execution per label: cross-validation impossible.
	seen := make(map[apps.Label]bool)
	tiny := ds.Filter(func(e *dataset.Execution) bool {
		if seen[e.Label] {
			return false
		}
		seen[e.Label] = true
		return true
	})
	d, rep, err := Fit(tiny, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Folds != 0 {
		t.Errorf("expected CV fallback, got Folds=%d", rep.Folds)
	}
	if rep.BestDepth < 1 {
		t.Errorf("fallback depth = %d", rep.BestDepth)
	}
	if d.Len() == 0 {
		t.Error("dictionary empty after fallback fit")
	}
}

func TestFitRestrictedDepths(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultFitConfig()
	cfg.Depths = []int{2}
	_, rep, err := Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestDepth != 2 {
		t.Errorf("BestDepth = %d, want 2 (only candidate)", rep.BestDepth)
	}
}

func TestBuildFixedDepth(t *testing.T) {
	ds := smallDataset(t)
	d, err := Build(ds, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().Depth != 2 {
		t.Errorf("Depth = %d", d.Config().Depth)
	}
	// At depth 2 the sp/bt keys must collide somewhere.
	if d.Stats().Collisions == 0 {
		t.Error("expected SP/BT collisions at depth 2")
	}
}

func TestClassifyTruthIsAppName(t *testing.T) {
	ds := smallDataset(t)
	d, _, err := Fit(ds, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := Classify(d, ds)
	if len(pairs) != ds.Len() {
		t.Fatalf("pairs = %d, want %d", len(pairs), ds.Len())
	}
	for i, p := range pairs {
		if p.Truth != ds.Executions[i].Label.App {
			t.Fatalf("pair %d truth %q, want app name %q", i, p.Truth, ds.Executions[i].Label.App)
		}
	}
}

func TestSourceAdapter(t *testing.T) {
	ds := smallDataset(t)
	e := ds.Executions[0]
	src := Source(e)
	if src.NodeCount() != e.NumNodes {
		t.Errorf("NodeCount = %d", src.NodeCount())
	}
	v1, ok1 := src.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow)
	v2, ok2 := e.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow)
	if ok1 != ok2 || v1 != v2 {
		t.Error("Source adapter does not delegate")
	}
}

// Property: anything learned is recognized — an execution whose
// fingerprints were all added under label L yields L (or a tie
// containing L) when recognized immediately.
func TestLearnThenRecognizeProperty(t *testing.T) {
	f := func(rawMeans []uint16, appSel uint8) bool {
		if len(rawMeans) == 0 {
			return true
		}
		if len(rawMeans) > 8 {
			rawMeans = rawMeans[:8]
		}
		names := []string{"ft", "mg", "cg"}
		label := apps.Label{App: names[int(appSel)%3], Input: apps.InputX}
		d, err := NewDictionary(paperCfg(3))
		if err != nil {
			return false
		}
		means := make([]float64, len(rawMeans))
		for i, m := range rawMeans {
			means[i] = float64(m) + 0.5
		}
		src := srcWith(len(means), apps.HeadlineMetric, means...)
		d.Learn(src, label)
		res := d.Recognize(src)
		for _, a := range res.Apps {
			if a == label.App {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: recognition votes never exceed the number of constructed
// fingerprints, and Matched <= Total.
func TestVoteBoundsProperty(t *testing.T) {
	ds := smallDataset(t)
	d, _, err := Fit(ds, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Executions {
		res := d.Recognize(Source(e))
		if res.Matched > res.Total {
			t.Fatalf("Matched %d > Total %d", res.Matched, res.Total)
		}
		for app, v := range res.Votes() {
			if v > res.Matched {
				t.Fatalf("votes for %s (%d) exceed matched keys (%d)", app, v, res.Matched)
			}
		}
	}
}

func TestFitEmptyDepths(t *testing.T) {
	ds := smallDataset(t)
	seen := make(map[apps.Label]bool)
	tiny := ds.Filter(func(e *dataset.Execution) bool {
		if seen[e.Label] {
			return false
		}
		seen[e.Label] = true
		return true
	})
	cfg := DefaultFitConfig()
	// Both the cross-validating path and the too-small fallback must
	// reject an empty candidate list instead of indexing into it, and a
	// list holding a depth below 1 wherever that depth stands, not only
	// when the fallback would take it.
	for _, depths := range [][]int{{}, {0, 3, 5}, {2, 4, -1}} {
		cfg.Depths = depths
		for name, train := range map[string]*dataset.Dataset{"cv": ds, "fallback": tiny} {
			if d, rep, err := Fit(train, cfg); err == nil {
				t.Errorf("%s: Fit with Depths %v succeeded: depth %d, %d keys", name, depths, rep.BestDepth, d.Len())
			}
		}
		if _, err := CrossValidate(ds, cfg); err == nil {
			t.Errorf("CrossValidate with Depths %v succeeded", depths)
		}
	}
}

// TestCrossValidateNeedsTwoFolds checks that CrossValidate takes its
// fold count as given: below 2 it is an error, not Fit's unscored
// fallback depth, and so is a count above the smallest class.
func TestCrossValidateNeedsTwoFolds(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultFitConfig()
	for _, folds := range []int{-1, 0, 1, 1000} {
		cfg.InnerFolds = folds
		if scores, err := CrossValidate(ds, cfg); err == nil {
			t.Errorf("CrossValidate over %d folds scored %v, want an error", folds, scores)
		}
	}
}

// TestKeyIndexNumbering holds newKeyIndex to a map numbering: two keys
// share an ID exactly when their buckets and bytes are equal, and IDs
// count up in order of first appearance. Every node of every execution
// has one of two means, so each key's bytes recur in dozens of
// buckets, and a probe that matched bytes alone would merge keys
// across nodes.
func TestKeyIndexNumbering(t *testing.T) {
	for _, joint := range []bool{false, true} {
		cfg := Config{
			Metrics: []string{apps.HeadlineMetric, "Active_meminfo"},
			Windows: []telemetry.Window{telemetry.PaperWindow, {Start: 0, End: 60 * time.Second}},
			Depth:   3, Joint: joint,
		}
		d, err := NewDictionary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var raws []rawExec
		for e := 0; e < 5; e++ {
			src := mapSource{nodes: 24, means: make(map[string]float64)}
			for node := range src.nodes {
				for _, m := range cfg.Metrics {
					for _, w := range cfg.Windows {
						src.means[key(m, node, w)] = float64(6000 + 500*((e+node)%2))
					}
				}
			}
			var re rawExec
			extractRawInto(&re, src, cfg.Metrics, cfg.Windows, joint)
			raws = append(raws, re)
		}
		ix := newKeyIndex(d, raws, new(gridScratch))
		type identity struct {
			bk  bucketKey
			key string
		}
		want := make(map[identity]int32)
		var ks keySet
		r := 0
		for i, re := range raws {
			d.keysFromRaw(&ks, re)
			if got := int(ix.off[i+1] - ix.off[i]); got != len(ks.refs) {
				t.Fatalf("joint=%v: execution %d spans %d keys, want %d", joint, i, got, len(ks.refs))
			}
			for _, ref := range ks.refs {
				k := identity{ref.bk, string(ks.buf[ref.off:ref.end])}
				id, ok := want[k]
				if !ok {
					id = int32(len(want))
					want[k] = id
				}
				if ix.id[r] != id {
					t.Fatalf("joint=%v: key %d (%+v) has ID %d, want %d", joint, r, k, ix.id[r], id)
				}
				if got := ix.keys[id]; got.bk != ref.bk || string(ix.buf[got.off:got.end]) != k.key {
					t.Fatalf("joint=%v: ID %d holds %+v %q, want %+v", joint, id, got.bk, ix.buf[got.off:got.end], k)
				}
				r++
			}
		}
		if r != len(ix.id) || len(ix.keys) != len(want) {
			t.Errorf("joint=%v: %d refs and %d keys, want %d and %d", joint, len(ix.id), len(ix.keys), r, len(want))
		}
	}
}

// referenceFit is the cross-validation Fit ran before the per-depth
// key index: one Dictionary learned through learnRaw and one
// Recognizer per (depth, fold) cell, then build at the chosen depth.
// TestFitMatchesPerCellOracle holds Fit to it.
func referenceFit(train *dataset.Dataset, cfg FitConfig) (*Dictionary, FitReport, error) {
	depths := cfg.Depths
	if depths == nil {
		depths = []int{1, 2, 3, 4, 5, 6}
	}
	folds := cfg.InnerFolds
	if folds <= 0 {
		folds = 5
	}
	counts := make(map[apps.Label]int)
	for _, e := range train.Executions {
		counts[e.Label]++
	}
	for _, c := range counts {
		folds = min(folds, c)
	}
	report := FitReport{DepthScores: make(map[int]float64), Folds: folds}
	if folds < 2 {
		report.Folds = 0
		report.BestDepth = depths[len(depths)/2]
	} else {
		kf, err := train.KFold(folds, cfg.Seed)
		if err != nil {
			return nil, FitReport{}, err
		}
		raws := make([]rawExec, train.Len())
		for i, e := range train.Executions {
			extractRawInto(&raws[i], Source(e), cfg.Metrics, cfg.Windows, cfg.Joint)
		}
		bestScore := -1.0
		for _, depth := range depths {
			var pooled []eval.Pair
			for _, fold := range kf {
				d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: cfg.Joint})
				if err != nil {
					return nil, FitReport{}, err
				}
				order := append([]int(nil), fold.Train...)
				sort.Slice(order, func(a, b int) bool {
					return train.Executions[order[a]].ID < train.Executions[order[b]].ID
				})
				var ks keySet
				for _, i := range order {
					d.learnRaw(raws[i], train.Executions[i].Label, &ks)
				}
				rec := d.NewRecognizer()
				for _, i := range fold.Test {
					e := train.Executions[i]
					pooled = append(pooled, eval.Pair{Truth: e.Label.App, Pred: rec.Recognize(Source(e)).Top()})
				}
			}
			score := eval.F1Macro(pooled)
			report.DepthScores[depth] = score
			if score > bestScore {
				bestScore, report.BestDepth = score, depth
			}
		}
	}
	d, err := build(train, cfg, report.BestDepth)
	return d, report, err
}

// oracleMetrics are the oracle grid's metrics: two that separate the
// applications and one constant that collides everywhere.
var oracleMetrics = []string{apps.HeadlineMetric, "Committed_AS_meminfo", "MemTotal_meminfo"}

// oracleDataset generates a multi-metric grid and roughens it for the
// oracle. Execution IDs are shuffled, so ID order interleaves the
// applications. The six lowest IDs cover no window at all: they have no
// key, so they must not decide which application wins a tie. Every
// seventh ID misses the [0:60] window only.
func oracleDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg", "sp", "bt", "miniAMR"}
	cfg.Repeats = 6
	cfg.Cluster.Metrics = oracleMetrics
	cfg.Seed = 11
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := dataset.DefaultWindows()[0]
	perm := rand.New(rand.NewSource(3)).Perm(ds.Len())
	out := &dataset.Dataset{Windows: ds.Windows}
	for i, e := range ds.Executions {
		c := *e
		c.ID = perm[i]
		switch {
		case c.ID < 6:
			c.Stats = dropWindows(e.Stats, func(telemetry.Window) bool { return true })
		case c.ID%7 == 0:
			c.Stats = dropWindows(e.Stats, func(w telemetry.Window) bool { return w == first })
		}
		out.Executions = append(out.Executions, &c)
	}
	return out
}

// dropWindows copies per-node summaries without the windows drop
// selects.
func dropWindows(stats map[string][]dataset.NodeMetricStats, drop func(telemetry.Window) bool) map[string][]dataset.NodeMetricStats {
	out := make(map[string][]dataset.NodeMetricStats, len(stats))
	for metric, per := range stats {
		cp := make([]dataset.NodeMetricStats, len(per))
		for node, nms := range per {
			var means []dataset.WindowMean
			for _, m := range nms.Means {
				if !drop(m.Window) {
					means = append(means, m)
				}
			}
			cp[node] = dataset.NodeMetricStats{Full: nms.Full, Means: means}
		}
		out[metric] = cp
	}
	return out
}

// TestFitMatchesPerCellOracle holds Fit's per-depth key index to
// referenceFit over seeds, training subsets and fingerprint
// configurations, at one worker and at eight: the reports must be
// deeply equal (DepthScores bit for bit) and the fitted dictionaries
// must save to the same bytes.
func TestFitMatchesPerCellOracle(t *testing.T) {
	ds := oracleDataset(t)
	windows := dataset.DefaultWindows()
	configs := []struct {
		name string
		set  func(*FitConfig)
	}{
		{"headline", func(*FitConfig) {}},
		{"metrics", func(c *FitConfig) { c.Metrics = oracleMetrics }},
		{"metrics joint", func(c *FitConfig) { c.Metrics, c.Joint = oracleMetrics, true }},
		{"repeated metric", func(c *FitConfig) {
			c.Metrics = []string{apps.HeadlineMetric, "Committed_AS_meminfo", apps.HeadlineMetric}
		}},
		{"repeated metric joint", func(c *FitConfig) {
			c.Metrics, c.Joint = []string{apps.HeadlineMetric, apps.HeadlineMetric}, true
		}},
		{"windows", func(c *FitConfig) { c.Windows = windows[:3] }},
		{"windows joint", func(c *FitConfig) {
			c.Metrics, c.Windows, c.Joint = oracleMetrics[:2], windows[:3], true
		}},
		{"restricted depths", func(c *FitConfig) { c.Depths = []int{3} }},
		{"unsorted depths", func(c *FitConfig) { c.Depths = []int{5, 2, 4, 1} }},
		{"duplicate depths", func(c *FitConfig) { c.Depths = []int{3, 1, 3, 2} }},
		{"clamped folds", func(c *FitConfig) { c.InnerFolds = 50 }},
		{"three folds", func(c *FitConfig) { c.InnerFolds = 3 }},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seen := make(map[apps.Label]bool)
		subsets := []struct {
			name  string
			train *dataset.Dataset
		}{
			{"all", ds},
			{"random 70%", ds.Filter(func(*dataset.Execution) bool { return rng.Float64() < 0.7 })},
			{"one per label", ds.Filter(func(e *dataset.Execution) bool {
				if seen[e.Label] {
					return false
				}
				seen[e.Label] = true
				return true
			})},
		}
		for _, sub := range subsets {
			for _, c := range configs {
				cfg := DefaultFitConfig()
				cfg.Seed = seed
				c.set(&cfg)
				want, wantRep, err := referenceFit(sub.train, cfg)
				if err != nil {
					t.Fatalf("seed %d %s %s: reference: %v", seed, sub.name, c.name, err)
				}
				wantBytes := saved(t, want)
				for _, workers := range []int{1, 8} {
					cfg.Workers = workers
					got, rep, err := Fit(sub.train, cfg)
					if err != nil {
						t.Fatalf("seed %d %s %s workers %d: %v", seed, sub.name, c.name, workers, err)
					}
					if !reflect.DeepEqual(rep, wantRep) {
						t.Errorf("seed %d %s %s workers %d: report %+v, reference %+v",
							seed, sub.name, c.name, workers, rep, wantRep)
					}
					if !bytes.Equal(saved(t, got), wantBytes) {
						t.Errorf("seed %d %s %s workers %d: saved dictionary differs from the reference",
							seed, sub.name, c.name, workers)
					}
				}
			}
		}
	}
}

// saved returns the dictionary's Save bytes.
func saved(t *testing.T, d *Dictionary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
