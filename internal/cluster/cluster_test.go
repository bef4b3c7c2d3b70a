package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/noise"
	"repro/internal/telemetry"
)

func quietSim(t *testing.T, nodes int, metrics []string) *Simulator {
	t.Helper()
	s, err := New(Config{Nodes: nodes, Noise: noise.Profile{Jitter: 0.0005, InitAmplitude: 0.3, InitSettle: 10 * time.Second}, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := New(Config{Nodes: 1, Metrics: []string{"bogus"}}); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := New(Config{Nodes: 1, Metrics: []string{}}); err == nil {
		t.Error("explicitly empty metric selection should fail")
	}
	s, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.metricIndexes); got != len(apps.Metrics()) {
		t.Errorf("default selection = %d metrics, want full catalog %d",
			got, len(apps.Metrics()))
	}
	if s.cfg.Period != telemetry.DefaultPeriod {
		t.Errorf("default period = %v", s.cfg.Period)
	}
}

func TestRunProducesCompleteTelemetry(t *testing.T) {
	metrics := []string{apps.HeadlineMetric, "Committed_AS_meminfo"}
	sim := quietSim(t, 3, metrics)
	spec, _ := apps.Lookup("lu")
	ns, exec, err := sim.Run(spec, apps.InputX, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range ns.Nodes() {
		for _, m := range ns.Metrics() {
			s := ns.Get(node, m)
			if s == nil {
				t.Fatalf("node %d %s: series missing", node, m)
			}
			var prev time.Duration // starts at 0: a negative offset fails too
			for i, v := range s.ValuesView() {
				off := s.OffsetAt(i)
				if off < prev {
					t.Fatalf("node %d %s sample %d: offset %v after %v", node, m, i, off, prev)
				}
				prev = off
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("node %d %s: non-finite value %v", node, m, v)
				}
			}
		}
	}
	if got := ns.Nodes(); len(got) != 3 {
		t.Fatalf("nodes = %v", got)
	}
	if got := ns.Metrics(); len(got) != 2 {
		t.Fatalf("metrics = %v", got)
	}
	s := ns.Get(0, apps.HeadlineMetric)
	wantSamples := int(exec.Duration()/time.Second) + 1
	if s.Len() != wantSamples {
		t.Errorf("series length %d, want %d", s.Len(), wantSamples)
	}
	// 1 Hz grid.
	if s.OffsetAt(1)-s.OffsetAt(0) != time.Second {
		t.Error("sampling period is not 1s")
	}
}

func TestRunRejectsUnsupportedInput(t *testing.T) {
	sim := quietSim(t, 2, []string{apps.HeadlineMetric})
	spec, _ := apps.Lookup("ft")
	if _, _, err := sim.Run(spec, apps.InputL, rand.New(rand.NewSource(1))); err == nil {
		t.Error("ft with input L should fail")
	}
}

func TestQuietWindowMeanNearModelLevel(t *testing.T) {
	sim := quietSim(t, 4, []string{apps.HeadlineMetric})
	spec, _ := apps.Lookup("lu")
	ns, _, err := sim.Run(spec, apps.InputY, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// lu node 0 models 8440, others 8330 (Table 4).
	want := []float64{8440, 8330, 8330, 8330}
	for node, w := range want {
		mean, err := ns.Get(node, apps.HeadlineMetric).WindowMean(telemetry.PaperWindow)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-w)/w > 0.01 {
			t.Errorf("node %d window mean %v, want ≈ %v", node, mean, w)
		}
	}
}

func TestInitTransientVisible(t *testing.T) {
	cfg := Config{Nodes: 1, Noise: noise.DefaultProfile(), Metrics: []string{apps.HeadlineMetric}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := apps.Lookup("ft")
	ns, _, err := sim.Run(spec, apps.InputX, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s := ns.Get(0, apps.HeadlineMetric)
	first := s.ValueAt(0)
	steady, err := s.WindowMean(telemetry.PaperWindow)
	if err != nil {
		t.Fatal(err)
	}
	// The start-up excursion must be clearly above the steady level.
	if first < steady*1.2 {
		t.Errorf("init transient too weak: first=%v steady=%v", first, steady)
	}
}

func TestValuesNonNegative(t *testing.T) {
	sim, err := New(Config{Nodes: 2, Noise: noise.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := apps.Lookup("miniMD")
	ns, _, err := sim.Run(spec, apps.InputX, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ns.Metrics() {
		for _, node := range ns.Nodes() {
			for _, v := range ns.Get(node, m).ValuesView() {
				if v < 0 {
					t.Fatalf("negative telemetry %v for %s", v, m)
				}
			}
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	sim := quietSim(t, 2, []string{apps.HeadlineMetric})
	spec, _ := apps.Lookup("cg")
	run := func() *telemetry.NodeSet {
		ns, _, err := sim.Run(spec, apps.InputZ, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	a, b := run(), run()
	sa, sb := a.Get(1, apps.HeadlineMetric), b.Get(1, apps.HeadlineMetric)
	if sa.Len() != sb.Len() {
		t.Fatal("lengths differ across identical seeds")
	}
	for i := 0; i < sa.Len(); i++ {
		if sa.At(i) != sb.At(i) {
			t.Fatalf("sample %d differs: %v vs %v", i, sa.At(i), sb.At(i))
		}
	}
}

func TestConstantMetricUnperturbedByExecution(t *testing.T) {
	sim := quietSim(t, 1, []string{"MemTotal_meminfo"})
	specA, _ := apps.Lookup("ft")
	specB, _ := apps.Lookup("kripke")
	nsA, _, err := sim.Run(specA, apps.InputX, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	nsB, _, err := sim.Run(specB, apps.InputZ, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := nsA.Get(0, "MemTotal_meminfo").WindowMean(telemetry.PaperWindow)
	mb, _ := nsB.Get(0, "MemTotal_meminfo").WindowMean(telemetry.PaperWindow)
	if math.Abs(ma-mb)/ma > 0.001 {
		t.Errorf("constant metric differs across apps: %v vs %v", ma, mb)
	}
}
