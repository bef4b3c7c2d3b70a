package core

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// mapSource is a WindowSource backed by literal means, for tests.
type mapSource struct {
	nodes int
	means map[string]float64 // "metric|node|window" -> raw mean
}

func key(metric string, node int, w telemetry.Window) string {
	return metric + "|" + string(rune('0'+node)) + "|" + w.String()
}

func (m mapSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	v, ok := m.means[key(metric, node, w)]
	return v, ok
}

func (m mapSource) NodeCount() int { return m.nodes }

func paperCfg(depth int) Config { return DefaultConfig(depth) }

func srcWith(nodes int, metric string, values ...float64) mapSource {
	ms := mapSource{nodes: nodes, means: make(map[string]float64)}
	for node, v := range values {
		ms.means[key(metric, node, telemetry.PaperWindow)] = v
	}
	return ms
}

func TestFingerprintString(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(1, apps.HeadlineMetric, 6012.7), apps.Label{App: "ft", Input: apps.InputX})
	fp := d.Entries()[0].Key
	want := "[nr_mapped_vmstat, 0, [60:120], 6000]"
	if fp.String() != want {
		t.Errorf("String = %q, want %q", fp.String(), want)
	}
	if fp.Mean() != 6000 || fp.Key != "6000" {
		t.Errorf("Key = %q, want 6000 (rounded)", fp.Key)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := paperCfg(3).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Windows: []telemetry.Window{telemetry.PaperWindow}, Depth: 1},
		{Metrics: []string{"m"}, Depth: 1},
		{Metrics: []string{"m"}, Windows: []telemetry.Window{{Start: 5, End: 2}}, Depth: 1},
		{Metrics: []string{"m"}, Windows: []telemetry.Window{telemetry.PaperWindow}, Depth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if _, err := NewDictionary(Config{}); err == nil {
		t.Error("NewDictionary should reject invalid config")
	}
}

func TestExtract(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(4, apps.HeadlineMetric, 6012, 6049, 5988, 6031), apps.Label{App: "ft", Input: apps.InputX})
	es := d.Entries()
	if len(es) != 4 {
		t.Fatalf("learned %d fingerprints, want 4", len(es))
	}
	for _, e := range es {
		if e.Key.Mean() != 6000 {
			t.Errorf("node %d mean = %v, want 6000", e.Key.Node, e.Key.Mean())
		}
	}
	// Nodes without data contribute nothing.
	d2, _ := NewDictionary(paperCfg(2))
	d2.Learn(srcWith(4, apps.HeadlineMetric, 6012, 6049), apps.Label{App: "ft", Input: apps.InputX})
	if got := d2.Len(); got != 2 {
		t.Errorf("partial source: %d fingerprints, want 2", got)
	}
}

func TestLearnLookupRecognize(t *testing.T) {
	d, err := NewDictionary(paperCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	ftX := apps.Label{App: "ft", Input: apps.InputX}
	mgX := apps.Label{App: "mg", Input: apps.InputX}
	d.Learn(srcWith(4, apps.HeadlineMetric, 6010, 6020, 5990, 6000), ftX)
	d.Learn(srcWith(4, apps.HeadlineMetric, 6110, 6120, 6090, 6100), mgX)

	if d.Len() != 8 {
		t.Fatalf("dictionary keys = %d, want 8", d.Len())
	}
	res := d.Recognize(srcWith(4, apps.HeadlineMetric, 6030, 5970, 6010, 6049))
	if !res.Recognized() || res.Top() != "ft" {
		t.Fatalf("Recognize = %+v, want ft", res)
	}
	if res.Matched != 4 || res.Total != 4 {
		t.Errorf("Matched/Total = %d/%d", res.Matched, res.Total)
	}
	if res.Confidence() != 1 {
		t.Errorf("Confidence = %v", res.Confidence())
	}
	// An execution near nothing in the dictionary is unknown.
	res = d.Recognize(srcWith(4, apps.HeadlineMetric, 9000, 9100, 9000, 9100))
	if res.Recognized() || res.Top() != Unknown {
		t.Fatalf("unmatched execution should be unknown, got %+v", res)
	}
	if res.Confidence() != 0 {
		t.Errorf("unknown Confidence = %v", res.Confidence())
	}
}

func TestRecognizeMajorityAcrossNodes(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	a := apps.Label{App: "aaa", Input: apps.InputX}
	b := apps.Label{App: "bbb", Input: apps.InputX}
	d.Learn(srcWith(4, apps.HeadlineMetric, 1000, 1010, 1020, 1030), a)
	d.Learn(srcWith(4, apps.HeadlineMetric, 2000, 2010, 1020, 1030), b) // shares nodes 2,3 keys with a

	// Test execution: nodes 0,1 match only a; nodes 2,3 match both.
	res := d.Recognize(srcWith(4, apps.HeadlineMetric, 1000, 1010, 1020, 1030))
	if res.Top() != "aaa" {
		t.Fatalf("majority vote should pick aaa, got %+v", res)
	}
	if res.VotesFor("aaa") != 4 || res.VotesFor("bbb") != 2 {
		t.Errorf("votes = %v", res.Votes())
	}
}

func TestRecognizeTieLearningOrder(t *testing.T) {
	// The SP/BT situation: identical keys at a coarse depth. The tie
	// resolves in learning order (the paper returns SP because SP was
	// learned first).
	d, _ := NewDictionary(paperCfg(2))
	sp := apps.Label{App: "sp", Input: apps.InputX}
	bt := apps.Label{App: "bt", Input: apps.InputX}
	d.Learn(srcWith(4, apps.HeadlineMetric, 7620, 7530, 7530, 7130), sp)
	d.Learn(srcWith(4, apps.HeadlineMetric, 7580, 7470, 7470, 7070), bt)

	res := d.Recognize(srcWith(4, apps.HeadlineMetric, 7600, 7500, 7500, 7100))
	if len(res.Apps) != 2 {
		t.Fatalf("expected a 2-way tie, got %+v", res)
	}
	if res.Apps[0] != "sp" || res.Apps[1] != "bt" {
		t.Errorf("tie order = %v, want [sp bt]", res.Apps)
	}
	if res.Top() != "sp" {
		t.Errorf("Top = %q", res.Top())
	}
}

func TestDepth3ResolvesSPBT(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	sp := apps.Label{App: "sp", Input: apps.InputX}
	bt := apps.Label{App: "bt", Input: apps.InputX}
	d.Learn(srcWith(4, apps.HeadlineMetric, 7620, 7530, 7530, 7130), sp)
	d.Learn(srcWith(4, apps.HeadlineMetric, 7580, 7470, 7470, 7070), bt)
	res := d.Recognize(srcWith(4, apps.HeadlineMetric, 7581, 7472, 7468, 7069))
	if res.Top() != "bt" || len(res.Apps) != 1 {
		t.Fatalf("depth 3 should recognize bt exclusively, got %+v", res)
	}
}

func TestInputsAggregation(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	for _, in := range []apps.Input{apps.InputX, apps.InputY, apps.InputZ} {
		d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6000), apps.Label{App: "ft", Input: in})
	}
	res := d.Recognize(srcWith(2, apps.HeadlineMetric, 6001, 5999))
	if res.Top() != "ft" {
		t.Fatal("should recognize ft")
	}
	// All three input labels share the keys.
	for _, e := range d.Entries() {
		if len(e.Labels) != 3 {
			t.Errorf("entry %v labels = %v, want all three inputs", e.Key, e.Labels)
		}
	}
	// One vote per matched key per app, not per label.
	if res.VotesFor("ft") != 2 {
		t.Errorf("votes = %v, want 2 (one per node)", res.Votes())
	}
}

func TestDictionaryStats(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6000), apps.Label{App: "ft", Input: apps.InputX})
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 7000), apps.Label{App: "mg", Input: apps.InputX})
	s := d.Stats()
	if s.Keys != 3 {
		t.Errorf("Keys = %d, want 3", s.Keys)
	}
	// (6000,node0) and (6000,node1) are ft+mg collisions... node0 6000
	// shared, node1 6000 ft only, node1 7000 mg only.
	if s.Collisions != 1 || s.Exclusive != 2 {
		t.Errorf("Collisions=%d Exclusive=%d", s.Collisions, s.Exclusive)
	}
	if s.Labels != 2 || s.Depth != 2 {
		t.Errorf("Labels=%d Depth=%d", s.Labels, s.Depth)
	}
}

func TestAddIdempotent(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	fp := Fingerprint{Metric: "m", Node: 0, Window: "[60:120]", Key: "6000"}
	l := apps.Label{App: "ft", Input: apps.InputX}
	d.AddN(fp, l, 1)
	d.AddN(fp, l, 1)
	if got := d.Entries()[0]; len(got.Labels) != 1 || got.Counts[0] != 2 {
		t.Errorf("duplicate AddN should count, not duplicate labels: %+v", got)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestEntriesSortedLikeTable4(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.AddN(Fingerprint{Metric: "m", Node: 1, Window: "[60:120]", Key: "7000"}, apps.Label{App: "b", Input: "X"}, 1)
	d.AddN(Fingerprint{Metric: "m", Node: 0, Window: "[60:120]", Key: "7000"}, apps.Label{App: "b", Input: "X"}, 1)
	d.AddN(Fingerprint{Metric: "m", Node: 3, Window: "[60:120]", Key: "6000"}, apps.Label{App: "a", Input: "X"}, 1)
	es := d.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries = %d", len(es))
	}
	if es[0].Key.Mean() != 6000 || es[1].Key.Node != 0 || es[2].Key.Node != 1 {
		t.Errorf("sort order wrong: %+v", es)
	}
}

func TestDumpFormat(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(1, apps.HeadlineMetric, 6012), apps.Label{App: "ft", Input: apps.InputX})
	var b strings.Builder
	if err := d.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"nr_mapped_vmstat", "[60:120]", "6000", "ft_X", "Application + Input Size"} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	d.Learn(srcWith(4, apps.HeadlineMetric, 7620, 7530, 7530, 7130), apps.Label{App: "sp", Input: apps.InputX})
	d.Learn(srcWith(4, apps.HeadlineMetric, 7580, 7470, 7470, 7070), apps.Label{App: "bt", Input: apps.InputY})

	var buf strings.Builder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("loaded %d keys, want %d", got.Len(), d.Len())
	}
	if got.Config().Depth != 3 {
		t.Errorf("loaded depth = %d", got.Config().Depth)
	}
	// Learning order must survive (tie-break semantics).
	a1, a2 := d.Apps(), got.Apps()
	if len(a1) != len(a2) || a1[0] != a2[0] || a1[1] != a2[1] {
		t.Errorf("app order: %v vs %v", a1, a2)
	}
	// Every entry must round-trip exactly.
	e1, e2 := d.Entries(), got.Entries()
	for i := range e1 {
		if e1[i].Key != e2[i].Key {
			t.Errorf("entry %d key: %v vs %v", i, e1[i].Key, e2[i].Key)
		}
		if len(e1[i].Labels) != len(e2[i].Labels) {
			t.Errorf("entry %d labels differ", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := Load(strings.NewReader(`{"metrics":["m"],"windows":["bogus"],"depth":2}`)); err == nil {
		t.Error("bad window should fail to load")
	}
	if _, err := Load(strings.NewReader(`{"metrics":["m"],"windows":["[60:120]"],"depth":2,"entries":[{"metric":"m","node":0,"window":"[60:120]","key":"","labels":["a_X"]}]}`)); err == nil {
		t.Error("empty key should fail to load")
	}
	if _, err := Load(strings.NewReader(`{"metrics":["m"],"windows":["[60:120]"],"depth":2,"entries":[{"metric":"m","node":0,"window":"[60:120]","key":"6000","labels":["badlabel"]}]}`)); err == nil {
		t.Error("bad label should fail to load")
	}
}

func TestPredictUsage(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6100), apps.Label{App: "ft", Input: apps.InputX})
	d.Learn(srcWith(2, apps.HeadlineMetric, 7000, 7100), apps.Label{App: "mg", Input: apps.InputX})
	got := d.PredictUsage("ft")
	if len(got) != 2 {
		t.Fatalf("PredictUsage = %d entries, want 2", len(got))
	}
	for _, e := range got {
		if e.Key.Mean() >= 7000 {
			t.Errorf("ft prediction contains mg key %v", e.Key)
		}
	}
	if got := d.PredictUsage("nosuch"); len(got) != 0 {
		t.Errorf("unknown app should predict nothing, got %d", len(got))
	}
	byLabel := d.PredictUsageForLabel(apps.Label{App: "mg", Input: apps.InputX})
	if len(byLabel) != 2 {
		t.Errorf("PredictUsageForLabel = %d", len(byLabel))
	}
}

func TestStreamMatchesOffline(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6000), apps.Label{App: "ft", Input: apps.InputX})

	s := NewStream(d, 2)
	if s.Complete() {
		t.Fatal("fresh stream should not be complete")
	}
	// Feed 1 Hz samples for 125 seconds on both nodes; init phase has
	// wild values which must be ignored (outside the window).
	for sec := 0; sec <= 125; sec++ {
		v := 6000.0
		if sec < 60 {
			v = 12000
		}
		for node := 0; node < 2; node++ {
			s.Feed(apps.HeadlineMetric, node, time.Duration(sec)*time.Second, v)
		}
		// Unconfigured metrics and out-of-range nodes are ignored.
		s.Feed("other_metric", 0, time.Duration(sec)*time.Second, 1)
		s.Feed(apps.HeadlineMetric, 7, time.Duration(sec)*time.Second, 1)
	}
	if !s.Complete() {
		t.Fatal("stream should be complete after 125s")
	}
	res := s.Recognize()
	if res.Top() != "ft" || res.Matched != 2 {
		t.Fatalf("stream recognition = %+v", res)
	}
}

func TestStreamProvisionalAnswer(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(1, apps.HeadlineMetric, 6000), apps.Label{App: "ft", Input: apps.InputX})
	s := NewStream(d, 1)
	// Only half the window fed.
	for sec := 60; sec < 90; sec++ {
		s.Feed(apps.HeadlineMetric, 0, time.Duration(sec)*time.Second, 6000)
	}
	if s.Complete() {
		t.Error("half-fed stream should not be complete")
	}
	if res := s.Recognize(); res.Top() != "ft" {
		t.Errorf("provisional answer should already match: %+v", res)
	}
}

func TestCountsSurviveSaveLoad(t *testing.T) {
	d, _ := NewDictionary(paperCfg(3))
	l := apps.Label{App: "ft", Input: apps.InputX}
	src := srcWith(1, apps.HeadlineMetric, 6000)
	for i := 0; i < 4; i++ {
		d.Learn(src, l)
	}

	var buf stringsBuilder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Entries()[0].Counts; len(got) != 1 || got[0] != 4 {
		t.Errorf("loaded counts = %v, want [4]", got)
	}
}

func TestJointExtract(t *testing.T) {
	cfg := Config{
		Metrics: []string{"m1", "m2"},
		Windows: []telemetry.Window{telemetry.PaperWindow},
		Depth:   2,
		Joint:   true,
	}
	src := mapSource{nodes: 2, means: map[string]float64{
		key("m1", 0, telemetry.PaperWindow): 6012,
		key("m2", 0, telemetry.PaperWindow): 84321,
		key("m1", 1, telemetry.PaperWindow): 6012,
		// m2 missing on node 1: the composite key is suppressed.
	}}
	d, err := NewDictionary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(src, apps.Label{App: "ft", Input: apps.InputX})
	es := d.Entries()
	if len(es) != 1 {
		t.Fatalf("joint fingerprints = %d, want 1", len(es))
	}
	if fp := es[0].Key; fp.Metric != "m1+m2" || fp.Key != "6000|84000" {
		t.Errorf("joint fingerprint = %+v", fp)
	}
	if es[0].Key.Mean() != 6000 {
		t.Errorf("joint Mean() = %v", es[0].Key.Mean())
	}
}

// stringsBuilder is a tiny buffer usable as both writer and reader in
// round-trip tests.
type stringsBuilder struct{ data []byte }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *stringsBuilder) Reader() *bytesReader { return &bytesReader{data: b.data} }

type bytesReader struct {
	data []byte
	pos  int
}

func (r *bytesReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

var errEOF = io.EOF
