package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/noise"
	"repro/internal/telemetry"
)

// smallConfig generates a fast dataset for tests: 3 apps, 2 metrics,
// 6 repeats, 2 nodes.
func smallConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Apps = []string{"ft", "mg", "miniAMR"}
	cfg.Repeats = 6
	cfg.Cluster.Nodes = 2
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric, "Committed_AS_meminfo"}
	return cfg
}

func genSmall(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateShape(t *testing.T) {
	ds := genSmall(t)
	// ft(3) + mg(3) + miniAMR(4) inputs × 6 repeats = 60 executions.
	if ds.Len() != 60 {
		t.Fatalf("Len = %d, want 60", ds.Len())
	}
	if got := len(ds.Labels()); got != 10 {
		t.Errorf("labels = %d, want 10", got)
	}
	if got := ds.Apps(); len(got) != 3 {
		t.Errorf("apps = %v", got)
	}
	if got := ds.Inputs(); len(got) != 4 {
		t.Errorf("inputs = %v", got)
	}
	if got := ds.Metrics(); len(got) != 2 {
		t.Errorf("metrics = %v", got)
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	w := telemetry.PaperWindow
	for i := range a.Executions {
		ea, eb := a.Executions[i], b.Executions[i]
		if ea.Label != eb.Label || ea.Duration != eb.Duration {
			t.Fatalf("execution %d differs: %v vs %v", i, ea.Label, eb.Label)
		}
		va, oka := ea.WindowMean(apps.HeadlineMetric, 0, w)
		vb, okb := eb.WindowMean(apps.HeadlineMetric, 0, w)
		if oka != okb || va != vb {
			t.Fatalf("execution %d window mean differs: %v vs %v", i, va, vb)
		}
	}
}

func TestGenerateParallelMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallel = true
	par, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = false
	seq, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.PaperWindow
	for i := range par.Executions {
		va, _ := par.Executions[i].WindowMean(apps.HeadlineMetric, 1, w)
		vb, _ := seq.Executions[i].WindowMean(apps.HeadlineMetric, 1, w)
		if va != vb {
			t.Fatalf("parallel and sequential generation diverge at execution %d", i)
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Repeats = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero repeats should fail")
	}
	cfg = smallConfig()
	cfg.Apps = []string{"nosuch"}
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown app should fail")
	}
	cfg = smallConfig()
	cfg.Cluster.Metrics = []string{"nosuch_metric"}
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestWindowMeansPresent(t *testing.T) {
	ds := genSmall(t)
	for _, e := range ds.Executions {
		for node := 0; node < e.NumNodes; node++ {
			if _, ok := e.WindowMean(apps.HeadlineMetric, node, telemetry.PaperWindow); !ok {
				t.Fatalf("execution %d node %d lacks the paper window mean", e.ID, node)
			}
		}
		if _, ok := e.WindowMean(apps.HeadlineMetric, 99, telemetry.PaperWindow); ok {
			t.Fatal("out-of-range node should report no mean")
		}
		if _, ok := e.WindowMean("nosuch", 0, telemetry.PaperWindow); ok {
			t.Fatal("unknown metric should report no mean")
		}
	}
}

func TestFilters(t *testing.T) {
	ds := genSmall(t)
	noX := ds.Filter(func(e *Execution) bool { return e.Label.Input != apps.InputX })
	for _, e := range noX.Executions {
		if e.Label.Input == apps.InputX {
			t.Fatal("Filter kept an X execution")
		}
	}
	onlyX := ds.Filter(func(e *Execution) bool { return e.Label.Input == apps.InputX })
	if onlyX.Len()+noX.Len() != ds.Len() {
		t.Error("complementary filters should partition the dataset")
	}
	noFT := ds.Filter(func(e *Execution) bool { return e.Label.App != "ft" })
	onlyFT := ds.Filter(func(e *Execution) bool { return e.Label.App == "ft" })
	if onlyFT.Len() != 18 || noFT.Len() != 42 {
		t.Errorf("app partition sizes: only=%d without=%d", onlyFT.Len(), noFT.Len())
	}
	for _, e := range onlyFT.Executions {
		if e.Label.App != "ft" {
			t.Fatal("Filter kept a non-ft execution")
		}
	}
}

func TestKFoldStratified(t *testing.T) {
	ds := genSmall(t)
	folds, err := ds.KFold(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for fi, f := range folds {
		if len(f.Train)+len(f.Test) != ds.Len() {
			t.Errorf("fold %d sizes: %d + %d != %d", fi, len(f.Train), len(f.Test), ds.Len())
		}
		// Stratification: each label appears 6 times → 2 per test fold.
		perLabel := make(map[apps.Label]int)
		for _, i := range f.Test {
			perLabel[ds.Executions[i].Label]++
			seen[i]++
		}
		for l, c := range perLabel {
			if c != 2 {
				t.Errorf("fold %d: label %v has %d test executions, want 2", fi, l, c)
			}
		}
		// No overlap between train and test.
		inTest := make(map[int]bool)
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("fold %d: execution %d in both train and test", fi, i)
			}
		}
	}
	// Every execution is tested exactly once across folds.
	for i := 0; i < ds.Len(); i++ {
		if seen[i] != 1 {
			t.Errorf("execution %d tested %d times", i, seen[i])
		}
	}
}

// TestKFoldSlicesSizedOnce checks that each fold's Test and Train list
// indexes in ascending order, cover the dataset together, and fill
// their slices exactly: KFold counts the fold sizes before it
// allocates, so no slice grows by append.
func TestKFoldSlicesSizedOnce(t *testing.T) {
	ds := genSmall(t)
	folds, err := ds.KFold(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range folds {
		for name, s := range map[string][]int{"Test": f.Test, "Train": f.Train} {
			if cap(s) != len(s) {
				t.Errorf("fold %d %s: capacity %d for %d indexes", fi, name, cap(s), len(s))
			}
			if !sort.IntsAreSorted(s) {
				t.Errorf("fold %d %s is not in index order: %v", fi, name, s)
			}
		}
		all := append(append([]int(nil), f.Test...), f.Train...)
		sort.Ints(all)
		for i, v := range all {
			if v != i {
				t.Fatalf("fold %d: Test and Train together hold %v, want every index once", fi, all)
			}
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	ds := genSmall(t)
	if _, err := ds.KFold(1, 0); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := ds.KFold(7, 0); err == nil {
		t.Error("k larger than smallest class should fail")
	}
}

func TestKFoldDeterministicPerSeed(t *testing.T) {
	ds := genSmall(t)
	f := func(seed int64) bool {
		a, err1 := ds.KFold(3, seed)
		b, err2 := ds.KFold(3, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if len(a[i].Test) != len(b[i].Test) {
				return false
			}
			for j := range a[i].Test {
				if a[i].Test[j] != b[i].Test[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// referenceKFold is KFold as it was before the folds came from
// Stratify: labels grouped by a map grown by append, sorted, and each
// group shuffled in label order. TestKFoldMatchesReference holds KFold
// to it.
func referenceKFold(d *Dataset, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, errors.New("dataset: k must be at least 2")
	}
	byLabel := make(map[apps.Label][]int)
	for i, e := range d.Executions {
		byLabel[e.Label] = append(byLabel[e.Label], i)
	}
	for l, idx := range byLabel {
		if len(idx) < k {
			return nil, fmt.Errorf("dataset: label %s has %d executions, fewer than k=%d",
				l, len(idx), k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, len(d.Executions)) // execution index -> fold
	labels := make([]apps.Label, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	apps.SortLabels(labels)
	for _, l := range labels {
		idx := byLabel[l]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for pos, i := range idx {
			assign[i] = pos % k
		}
	}
	folds := make([]Fold, k)
	if len(assign) == 0 {
		return folds, nil
	}
	size := make([]int, k)
	for _, f := range assign {
		size[f]++
	}
	for f := range folds {
		folds[f] = Fold{Train: make([]int, 0, len(assign)-size[f]), Test: make([]int, 0, size[f])}
	}
	for i, f := range assign {
		for fold := range folds {
			if fold == f {
				folds[fold].Test = append(folds[fold].Test, i)
			} else {
				folds[fold].Train = append(folds[fold].Train, i)
			}
		}
	}
	return folds, nil
}

// randomLabels returns a dataset of n executions whose labels are drawn
// from up to apps × inputs labels, in random order, with no stats: the
// shape alone decides the folds.
func randomLabels(rng *rand.Rand, n int) *Dataset {
	names := []string{"ft", "mg", "sp", "bt", "miniAMR"}[:1+rng.Intn(5)]
	inputs := apps.AllInputs[:1+rng.Intn(len(apps.AllInputs))]
	ds := &Dataset{}
	for i := range n {
		ds.Executions = append(ds.Executions, &Execution{ID: i, Label: apps.Label{
			App: names[rng.Intn(len(names))], Input: inputs[rng.Intn(len(inputs))],
		}})
	}
	return ds
}

// TestKFoldMatchesReference holds KFold to referenceKFold over random
// dataset shapes, seeds and fold counts: empty sets, one label, k below
// 2 and k above the smallest class. The folds must be deeply equal, and
// so must the errors, except that a KFold error names the first label
// in label order that is too small, where the reference named any.
func TestKFoldMatchesReference(t *testing.T) {
	reached := make(map[string]bool)
	for c := range 3000 {
		rng := rand.New(rand.NewSource(int64(c)))
		ds := randomLabels(rng, rng.Intn(40))
		k, seed := rng.Intn(7), rng.Int63()
		got, err := ds.KFold(k, seed)
		want, wantErr := referenceKFold(ds, k, seed)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("case %d: KFold error %v, reference %v", c, err, wantErr)
		}
		_, labels := ds.LabelIDs()
		switch {
		case ds.Len() == 0:
			reached["empty"] = true
		case len(labels) == 1:
			reached["one label"] = true
		}
		if err != nil {
			if k < 2 {
				reached["k below 2"] = true
			} else {
				reached["k above smallest class"] = true
			}
			if want := firstTooSmall(ds, labels, k, wantErr); err.Error() != want {
				t.Fatalf("case %d: KFold error %q, want %q", c, err, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: k=%d seed %d over %d executions: folds %v, reference %v", c, k, seed, ds.Len(), got, want)
		}
	}
	for _, r := range []string{"empty", "one label", "k below 2", "k above smallest class"} {
		if !reached[r] {
			t.Errorf("no case reached %s", r)
		}
	}
}

// firstTooSmall returns the error KFold should give for k over ds, whose
// labels in label order are labels, where the reference gave refErr:
// the reference's message when k is below 2, and otherwise that of the
// first label with fewer than k executions.
func firstTooSmall(ds *Dataset, labels []apps.Label, k int, refErr error) string {
	if k < 2 {
		return refErr.Error()
	}
	count := make(map[apps.Label]int)
	for _, e := range ds.Executions {
		count[e.Label]++
	}
	for _, l := range labels {
		if count[l] < k {
			return fmt.Sprintf("dataset: label %s has %d executions, fewer than k=%d", l, count[l], k)
		}
	}
	return ""
}

// TestKFoldErrorIsStable checks that KFold names the same label on
// every call when several labels are smaller than k.
func TestKFoldErrorIsStable(t *testing.T) {
	ds := &Dataset{}
	for i, app := range []string{"ft", "ft", "mg", "mg", "sp", "sp", "bt", "bt", "bt"} {
		ds.Executions = append(ds.Executions, &Execution{ID: i, Label: apps.Label{App: app, Input: apps.InputX}})
	}
	_, first := ds.KFold(3, 1)
	if first == nil {
		t.Fatal("KFold(3) over labels of 2 executions succeeded")
	}
	for i := range 200 {
		if _, err := ds.KFold(3, 1); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: KFold error %v, first call %v", i, err, first)
		}
	}
}

// TestKFoldStableOnUnrankedInputs checks that KFold returns the same
// folds on every call when apps.SortLabels ranks labels equal: inputs
// outside the known sizes, which LoadCSV accepts, all rank alike, and
// the order of such labels must not come from map iteration.
func TestKFoldStableOnUnrankedInputs(t *testing.T) {
	ds := &Dataset{}
	for i := range 12 {
		in := apps.Input([]string{"small", "large", "huge"}[i%3])
		ds.Executions = append(ds.Executions, &Execution{ID: i, Label: apps.Label{App: "ft", Input: in}})
	}
	first, err := ds.KFold(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 200 {
		if folds, err := ds.KFold(2, 1); err != nil || !reflect.DeepEqual(folds, first) {
			t.Fatalf("call %d: folds %v (error %v), first call %v", i, folds, err, first)
		}
	}
}

func TestSubset(t *testing.T) {
	ds := genSmall(t)
	sub := ds.Subset([]int{0, 5, 9})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if sub.Executions[1] != ds.Executions[5] {
		t.Error("Subset should share execution pointers")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := genSmall(t)
	// Duplicate ID.
	bad := &Dataset{Windows: ds.Windows, Executions: []*Execution{
		ds.Executions[0], ds.Executions[0],
	}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate IDs should fail validation")
	}
	// Truncated node stats.
	e := *ds.Executions[0]
	e.ID = 99999
	e.Stats = map[string][]NodeMetricStats{
		apps.HeadlineMetric:    ds.Executions[0].Stats[apps.HeadlineMetric][:1],
		"Committed_AS_meminfo": ds.Executions[0].Stats["Committed_AS_meminfo"],
	}
	bad2 := &Dataset{Executions: []*Execution{&e}}
	if err := bad2.Validate(); err == nil {
		t.Error("truncated node stats should fail validation")
	}
}

func TestSummarizeFromNodeSet(t *testing.T) {
	sim, err := cluster.New(cluster.Config{
		Nodes:   2,
		Noise:   noise.Profile{Jitter: 0.0005, InitAmplitude: 0.3, InitSettle: 10 * time.Second},
		Metrics: []string{apps.HeadlineMetric},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := apps.Lookup("ft")
	rng := rand.New(rand.NewSource(3))
	ns, _, err := sim.Run(spec, apps.InputX, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := Summarize(7, apps.Label{App: "ft", Input: apps.InputX}, ns, DefaultWindows())
	if e.ID != 7 || e.NumNodes != 2 {
		t.Fatalf("Summarize header wrong: %+v", e)
	}
	mean, ok := e.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow)
	if !ok {
		t.Fatal("missing window mean")
	}
	// Quiet profile: the mean must sit near the modelled 6000 level.
	if mean < 5800 || mean > 6300 {
		t.Errorf("ft window mean = %v, want ≈ 6000", mean)
	}
	full := e.Stats[apps.HeadlineMetric][0].Full
	if full.Count < int(e.Duration/time.Second) {
		t.Errorf("full summary count %d too small for duration %v", full.Count, e.Duration)
	}
	// The init transient makes the early window mean exceed the steady
	// window mean.
	early, ok := e.WindowMean(apps.HeadlineMetric, 0, telemetry.Window{Start: 0, End: 60 * time.Second})
	if !ok {
		t.Fatal("missing early window mean")
	}
	if early <= mean {
		t.Errorf("init transient should raise the early mean: early=%v steady=%v", early, mean)
	}
}

// TestSummarizeSortsUnsorted pins that Summarize sorts series ingested
// out of time order before it reads their windows: a shuffled NodeSet
// summarizes exactly as the same samples appended in order.
func TestSummarizeSortsUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sorted, shuffled := telemetry.NewNodeSet(), telemetry.NewNodeSet()
	for node := 0; node < 2; node++ {
		a, b := telemetry.NewSeries("m", node, 0), telemetry.NewSeries("m", node, 0)
		vals := make([]float64, 200)
		for i := range vals {
			vals[i] = 1000 + rng.NormFloat64()
			a.Append(time.Duration(i)*time.Second, vals[i])
		}
		for _, i := range rng.Perm(len(vals)) {
			b.Append(time.Duration(i)*time.Second, vals[i])
		}
		sorted.Put(a)
		shuffled.Put(b)
	}
	label := apps.Label{App: "ft", Input: apps.InputX}
	want := Summarize(1, label, sorted, DefaultWindows())
	got := Summarize(1, label, shuffled, DefaultWindows())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Summarize of the shuffled set = %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Stats["m"][0].Means) != len(DefaultWindows()) {
		t.Errorf("means %v, want one per default window", got.Stats["m"][0].Means)
	}
}

// TestSummarizeSkipsNonFiniteWindow pins that a window whose sum
// overflows has no mean: Summarize leaves it out, as it leaves out a
// window the series does not cover, and the CSV round trip keeps it
// absent instead of storing NaN.
func TestSummarizeSkipsNonFiniteWindow(t *testing.T) {
	s := telemetry.NewSeries("m", 0, 180)
	for i := 0; i < 180; i++ {
		v := 1.0
		if telemetry.PaperWindow.Contains(time.Duration(i) * time.Second) {
			v = 1.5e307
		}
		s.Append(time.Duration(i)*time.Second, v)
	}
	ns := telemetry.NewNodeSet()
	ns.Put(s)
	e := Summarize(0, apps.Label{App: "ft", Input: apps.InputX}, ns, DefaultWindows())
	var buf bytes.Buffer
	if err := (&Dataset{Windows: DefaultWindows(), Executions: []*Execution{e}}).SaveCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Execution{e, loaded.Executions[0]} {
		for _, w := range DefaultWindows() {
			mean, ok := ex.WindowMean("m", 0, w)
			finite := w.End <= telemetry.PaperWindow.Start || w.Start >= telemetry.PaperWindow.End
			if ok != finite || (ok && mean != 1) {
				t.Errorf("window %v: mean %v, %v; want present=%v", w, mean, ok, finite)
			}
		}
	}
}

func TestDefaultWindowsContainPaperWindow(t *testing.T) {
	found := false
	for _, w := range DefaultWindows() {
		if w == telemetry.PaperWindow {
			found = true
		}
		if !w.Valid() {
			t.Errorf("invalid default window %v", w)
		}
	}
	if !found {
		t.Error("DefaultWindows must include the paper window")
	}
}
