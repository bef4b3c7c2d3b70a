package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/taxonomist"
	"repro/internal/telemetry"
)

// testDS generates a small but structurally interesting dataset once:
// it includes the SP/BT near-collision and the input-dependent miniAMR.
var (
	testDSOnce sync.Once
	testDSVal  *dataset.Dataset
	testDSErr  error
)

func testDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	testDSOnce.Do(func() {
		cfg := dataset.DefaultGenConfig()
		cfg.Apps = []string{"ft", "mg", "sp", "bt", "cg", "CoMD", "miniAMR"}
		cfg.Repeats = 8
		cfg.Cluster.Metrics = []string{
			apps.HeadlineMetric, "Committed_AS_meminfo", "PI_PKTS_metric_set_nic",
			"MemTotal_meminfo",
		}
		testDSVal, testDSErr = dataset.Generate(cfg)
	})
	if testDSErr != nil {
		t.Fatal(testDSErr)
	}
	return testDSVal
}

func testHarness(t *testing.T) *Harness {
	h := NewHarness(testDS(t))
	h.Folds = 5
	return h
}

func TestNormalFold(t *testing.T) {
	h := testHarness(t)
	s, err := h.NormalFold()
	if err != nil {
		t.Fatal(err)
	}
	if s.EFD < 0.9 {
		t.Errorf("normal fold EFD = %v, want >= 0.9", s.EFD)
	}
	if s.HasTaxonomist {
		t.Error("no baseline configured, HasTaxonomist should be false")
	}
	if s.Report.Total != testDS(t).Len() {
		t.Errorf("pooled report total = %d", s.Report.Total)
	}
}

func TestProtocolOrdering(t *testing.T) {
	h := testHarness(t)
	nf, err := h.NormalFold()
	if err != nil {
		t.Fatal(err)
	}
	si, err := h.SoftInput()
	if err != nil {
		t.Fatal(err)
	}
	hi, err := h.HardInput()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 2 ordering: normal >= soft input >= hard
	// input (hard protocols are strictly harsher). Allow slack for
	// fold noise on the soft comparison.
	if si.EFD > nf.EFD+0.02 {
		t.Errorf("soft input (%v) should not beat normal fold (%v)", si.EFD, nf.EFD)
	}
	if hi.EFD >= si.EFD {
		t.Errorf("hard input (%v) should be below soft input (%v)", hi.EFD, si.EFD)
	}
	// miniAMR is strongly input-dependent: the hard-input protocol
	// must degrade.
	if hi.EFD > 0.95 {
		t.Errorf("hard input EFD = %v, expected visible degradation", hi.EFD)
	}
	if len(si.PerDimension) != 4 || len(hi.PerDimension) != 4 {
		t.Errorf("input protocols should report 4 dimensions: %v %v",
			si.PerDimension, hi.PerDimension)
	}
}

func TestUnknownProtocols(t *testing.T) {
	h := testHarness(t)
	su, err := h.SoftUnknown()
	if err != nil {
		t.Fatal(err)
	}
	hu, err := h.HardUnknown()
	if err != nil {
		t.Fatal(err)
	}
	if len(su.PerDimension) != 7 || len(hu.PerDimension) != 7 {
		t.Fatalf("unknown protocols should report one dimension per app")
	}
	// SP removed: its fingerprints collide with BT's at coarse depths,
	// so SP is the hard case the paper discusses; ft should be easy.
	if hu.PerDimension["ft"] < 0.9 {
		t.Errorf("hard unknown ft = %v, want >= 0.9", hu.PerDimension["ft"])
	}
	if hu.PerDimension["sp"] >= hu.PerDimension["ft"] {
		t.Errorf("sp (%v) should be harder than ft (%v) in hard unknown",
			hu.PerDimension["sp"], hu.PerDimension["ft"])
	}
	for k, v := range su.PerDimension {
		if v < 0 || v > 1 {
			t.Errorf("soft unknown %s = %v out of range", k, v)
		}
	}
}

func TestRunAllOrder(t *testing.T) {
	h := testHarness(t)
	scores, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"normal fold", "soft input", "soft unknown", "hard input", "hard unknown"}
	if len(scores) != len(want) {
		t.Fatalf("scores = %d", len(scores))
	}
	for i, s := range scores {
		if s.Protocol != want[i] {
			t.Errorf("protocol %d = %q, want %q", i, s.Protocol, want[i])
		}
	}
}

func TestTaxonomistIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("taxonomist integration is slow")
	}
	h := testHarness(t)
	h.Taxo = &TaxoConfig{
		Forest: taxonomist.ForestConfig{Trees: 15, Seed: 3, Parallel: true},
	}
	s, err := h.NormalFold()
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasTaxonomist {
		t.Fatal("baseline configured but not reported")
	}
	if s.Taxonomist < 0.9 {
		t.Errorf("Taxonomist normal fold = %v, want >= 0.9", s.Taxonomist)
	}
}

func TestMetricSweepOrdering(t *testing.T) {
	h := testHarness(t)
	rows, err := h.MetricSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FScore > rows[i-1].FScore {
			t.Errorf("sweep not sorted: %v", rows)
		}
	}
	// The constant metric must come last and score poorly; the
	// headline metric must be near the top.
	if rows[len(rows)-1].Metric != "MemTotal_meminfo" {
		t.Errorf("worst metric = %q, want MemTotal_meminfo", rows[len(rows)-1].Metric)
	}
	if rows[len(rows)-1].FScore > 0.5 {
		t.Errorf("constant metric scored %v", rows[len(rows)-1].FScore)
	}
	for _, r := range rows {
		if r.Metric == apps.HeadlineMetric && r.FScore < 0.9 {
			t.Errorf("headline metric scored %v", r.FScore)
		}
	}
}

func TestExampleDictionaryReproducesTable4Structure(t *testing.T) {
	d, err := ExampleDictionary(testDS(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().Depth != 2 {
		t.Fatalf("example dictionary depth = %d, want 2", d.Config().Depth)
	}
	// The SP/BT collision must be visible: at least one key holding
	// both sp and bt labels.
	collision := false
	for _, e := range d.Entries() {
		hasSP, hasBT := false, false
		for _, l := range e.Labels {
			if l.App == "sp" {
				hasSP = true
			}
			if l.App == "bt" {
				hasBT = true
			}
		}
		if hasSP && hasBT {
			collision = true
			break
		}
	}
	if !collision {
		t.Error("Table 4's SP/BT collision is missing from the example dictionary")
	}
	// miniAMR must appear with input-specific keys: find a key whose
	// labels are miniAMR-only and carry a single input.
	inputSpecific := false
	for _, e := range d.Entries() {
		onlyAMR := len(e.Labels) > 0
		inputs := make(map[apps.Input]bool)
		for _, l := range e.Labels {
			if l.App != "miniAMR" {
				onlyAMR = false
				break
			}
			inputs[l.Input] = true
		}
		if onlyAMR && len(inputs) == 1 {
			inputSpecific = true
			break
		}
	}
	if !inputSpecific {
		t.Error("Table 4's input-specific miniAMR keys are missing")
	}
}

func TestDepthAblationShape(t *testing.T) {
	h := testHarness(t)
	scores, err := h.DepthAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 6 {
		t.Fatalf("depths = %d", len(scores))
	}
	// The trade-off curve: depth 3 beats both extremes.
	if !(scores[3] > scores[1] && scores[3] > scores[6]) {
		t.Errorf("depth trade-off shape violated: %v", scores)
	}
}

func TestIntervalAblationPrefersPaperWindow(t *testing.T) {
	h := testHarness(t)
	scores, err := h.IntervalAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	paper := scores[telemetry.PaperWindow.String()]
	early := scores["[0:60]"]
	if paper <= early {
		t.Errorf("[60:120] (%v) should beat [0:60] (%v): the init phase is noisy",
			paper, early)
	}
}

func TestVotingAblation(t *testing.T) {
	h := testHarness(t)
	all, single, err := h.VotingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if single > all+0.01 {
		t.Errorf("single-node (%v) should not beat all-node voting (%v)", single, all)
	}
}

func TestComboAblationJointImprovesHardUnknown(t *testing.T) {
	h := testHarness(t)
	combos := map[string][]string{
		"headline": {apps.HeadlineMetric},
		"combo":    {apps.HeadlineMetric, "Committed_AS_meminfo"},
	}
	rows, err := h.ComboAblation(combos)
	if err != nil {
		t.Fatal(err)
	}
	// headline (1 row) + combo in both voting and joint modes.
	if len(rows) != 3 {
		t.Fatalf("rows = %d: %+v", len(rows), rows)
	}
	if rows[0].Name != "headline" || rows[0].Joint {
		t.Errorf("single-metric combo should come first: %+v", rows[0])
	}
	var voting, joint ComboResult
	for _, r := range rows[1:] {
		if r.Joint {
			joint = r
		} else {
			voting = r
		}
	}
	// Composite keys are more exclusive than independently voting
	// keys, so they must do at least as well on the hard-unknown
	// protocol (the paper's §6 expectation).
	if joint.HardUnknown+1e-9 < voting.HardUnknown {
		t.Errorf("joint hard unknown (%v) should be >= voting (%v)",
			joint.HardUnknown, voting.HardUnknown)
	}
	// ...and joint keys must also beat the single metric on hard
	// unknown: two metrics must repeat simultaneously to fool them.
	if joint.HardUnknown+1e-9 < rows[0].HardUnknown {
		t.Errorf("joint hard unknown (%v) should be >= headline alone (%v)",
			joint.HardUnknown, rows[0].HardUnknown)
	}
	for _, r := range rows {
		if r.NormalFold < 0.85 {
			t.Errorf("%s normal fold = %v, suspiciously low", r.Name, r.NormalFold)
		}
	}
}

func TestDictionaryGrowth(t *testing.T) {
	h := testHarness(t)
	growth, err := h.DictionaryGrowth(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning monotonicity: coarser rounding (smaller depth) yields
	// fewer or equal keys.
	for d := 1; d < 6; d++ {
		if growth[d].Keys > growth[d+1].Keys {
			t.Errorf("depth %d has more keys (%d) than depth %d (%d)",
				d, growth[d].Keys, d+1, growth[d+1].Keys)
		}
	}
	if growth[1].Keys >= growth[6].Keys {
		t.Errorf("depth 1 (%d keys) should be far smaller than depth 6 (%d)",
			growth[1].Keys, growth[6].Keys)
	}
}

// TestAblationsHonorJoint runs the depth and growth ablations on a
// joint two-metric harness and checks them against dictionaries built
// with Joint set: the depth scores fold by fold through core.Build and
// core.Classify, the growth through core.Build over the whole dataset.
func TestAblationsHonorJoint(t *testing.T) {
	h := testHarness(t)
	h.Fit.Metrics = []string{apps.HeadlineMetric, "Committed_AS_meminfo"}
	h.Fit.Joint = true
	depths := []int{2, 3, 4}
	scores, err := h.DepthAblation(depths)
	if err != nil {
		t.Fatal(err)
	}
	growth, err := h.DictionaryGrowth(depths)
	if err != nil {
		t.Fatal(err)
	}
	folds, err := h.DS.KFold(h.Folds, h.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range depths {
		cfg := core.Config{Metrics: h.Fit.Metrics, Windows: h.Fit.Windows, Depth: depth, Joint: true}
		var pairs []eval.Pair
		for _, f := range folds {
			d, err := core.Build(h.DS.Subset(f.Train), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, core.Classify(d, h.DS.Subset(f.Test))...)
		}
		if want := eval.F1Macro(pairs); scores[depth] != want {
			t.Errorf("depth %d: DepthAblation = %v, joint dictionaries score %v", depth, scores[depth], want)
		}
		d, err := core.Build(h.DS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := d.Stats(); growth[depth] != want {
			t.Errorf("depth %d: DictionaryGrowth = %+v, joint dictionary %+v", depth, growth[depth], want)
		}
	}
}

func TestLatencyAblation(t *testing.T) {
	h := testHarness(t)
	scores, err := h.LatencyAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no latency points")
	}
	for k, v := range scores {
		if v < 0 || v > 1 {
			t.Errorf("latency %s = %v out of range", k, v)
		}
	}
}

func TestRenderers(t *testing.T) {
	var b strings.Builder
	RenderTable1(&b)
	if !strings.Contains(b.String(), "1358") || !strings.Contains(b.String(), "0.04") {
		t.Errorf("Table 1 rendering:\n%s", b.String())
	}

	b.Reset()
	RenderTable2(&b, testDS(t))
	for _, want := range []string{"miniAMR", "Total executions", "176"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table 2 missing %q:\n%s", want, b.String())
		}
	}

	b.Reset()
	scores := []Score{
		{Protocol: "normal fold", EFD: 0.99, Taxonomist: 0.98, HasTaxonomist: true},
		{Protocol: "hard input", EFD: 0.75},
	}
	RenderFigure2(&b, scores)
	out := b.String()
	if !strings.Contains(out, "normal fold") || !strings.Contains(out, "not conducted") {
		t.Errorf("Figure 2 rendering:\n%s", out)
	}

	b.Reset()
	RenderTable3(&b, []MetricScore{
		{Metric: "nr_mapped_vmstat", FScore: 1.0, Depth: 3},
		{Metric: "x", FScore: 0.5, Depth: 2},
	}, 1)
	if !strings.Contains(b.String(), "nr_mapped_vmstat") || !strings.Contains(b.String(), "...") {
		t.Errorf("Table 3 rendering:\n%s", b.String())
	}

	b.Reset()
	RenderPerDimension(&b, Score{Protocol: "p", PerDimension: map[string]float64{"X": 0.5}})
	if !strings.Contains(b.String(), "X") {
		t.Errorf("per-dimension rendering:\n%s", b.String())
	}
}
