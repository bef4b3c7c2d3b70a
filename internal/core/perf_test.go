package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// TestRecognizerZeroAlloc pins the headline guarantee of the interned
// hot path: on a warmed dictionary, recognizing a dataset execution
// through a reused Recognizer performs zero allocations.
func TestRecognizerZeroAlloc(t *testing.T) {
	ds := smallDataset(t)
	d, err := Build(ds, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rec := d.NewRecognizer()
	// Warm the scratch buffers and the dataset's window indexes.
	for _, e := range ds.Executions {
		if res := rec.Recognize(Source(e)); res.Total == 0 {
			t.Fatal("no fingerprints constructed")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e := ds.Executions[i%ds.Len()]
		i++
		if res := rec.Recognize(Source(e)); res.Total == 0 {
			t.Fatal("no fingerprints constructed")
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Recognizer.Recognize allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		e := ds.Executions[i%ds.Len()]
		i++
		if res := rec.RecognizeWeighted(Source(e)); res.Total == 0 {
			t.Fatal("no fingerprints constructed")
		}
	})
	if allocs != 0 {
		t.Errorf("warmed RecognizeWeighted allocates %.1f/op, want 0", allocs)
	}
}

// TestStreamRecognizeZeroAlloc checks the streaming poll path: once a
// stream's accumulators exist, Feed and Recognize are allocation-free.
func TestStreamRecognizeZeroAlloc(t *testing.T) {
	d, _ := NewDictionary(paperCfg(2))
	d.Learn(srcWith(2, apps.HeadlineMetric, 6000, 6000), apps.Label{App: "ft", Input: apps.InputX})
	s := NewStream(d, 2)
	for sec := 0; sec <= 125; sec++ {
		for node := 0; node < 2; node++ {
			s.Feed(apps.HeadlineMetric, node, time.Duration(sec)*time.Second, 6000)
		}
	}
	if s.Recognize().Top() != "ft" {
		t.Fatal("stream should recognize ft")
	}
	feedAllocs := testing.AllocsPerRun(500, func() {
		s.Feed(apps.HeadlineMetric, 0, 90*time.Second, 6000)
	})
	if feedAllocs != 0 {
		t.Errorf("warmed Feed allocates %.1f/op, want 0", feedAllocs)
	}
	recAllocs := testing.AllocsPerRun(200, func() {
		if s.Recognize().Top() != "ft" {
			t.Fatal("recognition flipped")
		}
	})
	if recAllocs != 0 {
		t.Errorf("warmed Stream.Recognize allocates %.1f/op, want 0", recAllocs)
	}
}

// TestFitDeterministicAcrossWorkers verifies the parallel grid promise:
// the report and the serialized dictionary are byte-identical at any
// worker count.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	ds := smallDataset(t)
	var reports []FitReport
	var saved [][]byte
	for _, workers := range []int{1, 8} {
		cfg := DefaultFitConfig()
		cfg.Workers = workers
		d, rep, err := Fit(ds, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		saved = append(saved, buf.Bytes())
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("reports differ across worker counts:\n  1: %+v\n  8: %+v", reports[0], reports[1])
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Error("serialized dictionaries differ across worker counts")
	}
}

// TestFitAllocs pins the allocations of one Fit on smallDataset at one
// worker. When every (depth, fold) cell built its own Dictionary they
// were 38,950; one key index per depth that interned each key as a
// string of its own, 3,811. Interning into one byte buffer per depth,
// scratch shared by the depths and presized extraction make 1,722.
func TestFitAllocs(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultFitConfig()
	cfg.Workers = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Fit(ds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 1722.0; allocs > limit {
		t.Errorf("Fit allocates %.0f times, want at most %.0f (a string per interned key, or scratch per depth, again?)", allocs, limit)
	}
}

// TestClassifyDeterministicAcrossGOMAXPROCS verifies that the pair
// order of the chunked Classify is the dataset order regardless of
// available parallelism.
func TestClassifyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ds := smallDataset(t)
	d, _, err := Fit(ds, DefaultFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	seq := Classify(d, ds)
	runtime.GOMAXPROCS(8)
	par := Classify(d, ds)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(seq, par) {
		t.Error("Classify pairs differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
	for i, p := range seq {
		if p.Truth != ds.Executions[i].Label.App {
			t.Fatalf("pair %d out of dataset order", i)
		}
	}
}

// TestFitRawPathMatchesSourcePath cross-checks the re-rounding
// optimization: a dictionary learned from cached raw means at a given
// depth equals one learned from the dataset directly.
func TestFitRawPathMatchesSourcePath(t *testing.T) {
	ds := smallDataset(t)
	for _, joint := range []bool{false, true} {
		cfg := DefaultFitConfig()
		cfg.Joint = joint
		if joint {
			cfg.Metrics = []string{apps.HeadlineMetric, apps.HeadlineMetric}
		}
		for _, depth := range []int{1, 3, 6} {
			direct, err := build(ds, cfg, depth)
			if err != nil {
				t.Fatal(err)
			}
			viaRaw, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: joint})
			if err != nil {
				t.Fatal(err)
			}
			var ks keySet
			for _, e := range ds.Executions { // IDs are already ascending
				viaRaw.learnRaw(extractRaw(Source(e), cfg.Metrics, cfg.Windows, joint), e.Label, &ks)
			}
			var a, b bytes.Buffer
			if err := direct.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := viaRaw.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("joint=%v depth=%d: raw-path dictionary differs from direct build", joint, depth)
			}
		}
	}
}

// TestJointSaveLoadRoundTrip covers the serialization fix: a joint-mode
// dictionary must round-trip its Joint flag, and recognition must still
// work after reload (composite keys only match when extraction stays in
// joint mode).
func TestJointSaveLoadRoundTrip(t *testing.T) {
	cfg := Config{
		Metrics: []string{apps.HeadlineMetric, "Committed_AS_meminfo"},
		Windows: []telemetry.Window{telemetry.PaperWindow},
		Depth:   2,
		Joint:   true,
	}
	d, err := NewDictionary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := mapSource{nodes: 1, means: map[string]float64{
		key(apps.HeadlineMetric, 0, telemetry.PaperWindow):    6012,
		key("Committed_AS_meminfo", 0, telemetry.PaperWindow): 91000,
	}}
	label := apps.Label{App: "ft", Input: apps.InputX}
	d.Learn(src, label)
	if d.Len() != 1 {
		t.Fatalf("joint learning produced %d keys, want 1 composite", d.Len())
	}

	var buf strings.Builder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Config().Joint {
		t.Fatal("Joint flag lost in round trip")
	}
	res := got.Recognize(src)
	if res.Top() != "ft" || res.Matched != 1 {
		t.Errorf("reloaded joint dictionary failed recognition: %+v", res)
	}
	// The reloaded serialization must be identical, too.
	var buf2 strings.Builder
	if err := got.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("joint dictionary serialization not stable across a round trip")
	}
}

// TestExtractIntoReusesBuffer checks the append-style extraction API.
func TestExtractIntoReusesBuffer(t *testing.T) {
	src := srcWith(4, apps.HeadlineMetric, 6012, 6049, 5988, 6031)
	first := ExtractInto(nil, src, paperCfg(2))
	if len(first) != 4 {
		t.Fatalf("ExtractInto returned %d fingerprints, want 4", len(first))
	}
	reused := ExtractInto(first[:0], src, paperCfg(2))
	if len(reused) != 4 {
		t.Fatalf("reused ExtractInto returned %d fingerprints", len(reused))
	}
	if &first[0] != &reused[0] {
		t.Error("ExtractInto did not reuse the destination's backing array")
	}
	if !reflect.DeepEqual(Extract(src, paperCfg(2)), reused) {
		t.Error("ExtractInto and Extract disagree")
	}
}
