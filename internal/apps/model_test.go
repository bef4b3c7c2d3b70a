package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// lookupMetric returns the catalog definition of the named metric.
func lookupMetric(name string) (MetricDef, bool) {
	for _, m := range Metrics() {
		if m.Name == name {
			return m, true
		}
	}
	return MetricDef{}, false
}

func TestCatalogShape(t *testing.T) {
	specs := Catalog()
	if len(specs) != 11 {
		t.Fatalf("expected 11 applications, got %d", len(specs))
	}
	withL, labels := 0, 0
	for _, s := range specs {
		labels += len(s.Inputs)
		if len(s.Inputs) < 3 {
			t.Errorf("%s supports %d inputs, want >= 3", s.Name, len(s.Inputs))
		}
		if s.SupportsInput(InputL) {
			withL++
		}
	}
	// Table 2: input L is only available for a subset (the four
	// starred applications).
	if withL != 4 {
		t.Errorf("%d applications support input L, want 4", withL)
	}
	// 7×3 + 4×4 = 37 label combinations.
	if labels != 37 {
		t.Errorf("label combinations = %d, want 37", labels)
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		s, ok := Lookup(name)
		if !ok || s.Name != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("hpl"); ok {
		t.Error("Lookup of unknown app should fail")
	}
}

func TestMetricCatalog(t *testing.T) {
	mets := Metrics()
	if len(mets) < 40 {
		t.Fatalf("metric catalog has %d entries, want >= 40", len(mets))
	}
	// The thirteen metrics of Table 3 must all exist.
	table3 := []string{
		"nr_mapped_vmstat", "Committed_AS_meminfo", "nr_active_anon_vmstat",
		"nr_anon_pages_vmstat", "Active_meminfo", "Mapped_meminfo",
		"AnonPages_meminfo", "MemFree_meminfo", "PageTables_meminfo",
		"nr_page_table_pages_vmstat", "AMO_PKTS_metric_set_nic",
		"AMO_FLITS_metric_set_nic", "PI_PKTS_metric_set_nic",
	}
	for _, name := range table3 {
		m, ok := lookupMetric(name)
		if !ok {
			t.Errorf("Table 3 metric %q missing from catalog", name)
			continue
		}
		if m.Base <= 0 {
			t.Errorf("%s has non-positive base", name)
		}
	}
	seen := make(map[string]bool)
	for _, m := range mets {
		if seen[m.Name] {
			t.Errorf("duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if m.Set != "vmstat" && m.Set != "meminfo" && m.Set != "metric_set_nic" {
			t.Errorf("%s has unknown set %q", m.Name, m.Set)
		}
	}
}

func TestInstantiateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ft, _ := Lookup("ft")
	if _, err := ft.Instantiate(InputL, 4, rng); err == nil {
		t.Error("ft does not support L; Instantiate should fail")
	}
	if _, err := ft.Instantiate(InputX, 0, rng); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := ft.Instantiate(InputX, 4, rng); err != nil {
		t.Errorf("valid instantiation failed: %v", err)
	}
}

func TestExecutionDurationCoversWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range Catalog() {
		for _, in := range s.Inputs {
			for r := 0; r < 5; r++ {
				e, err := s.Instantiate(in, 4, rng)
				if err != nil {
					t.Fatal(err)
				}
				if e.Duration() < 130*time.Second {
					t.Errorf("%s_%s duration %v does not cover the [60:120] window",
						s.Name, in, e.Duration())
				}
			}
		}
	}
}

func TestDurationGrowsWithInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := Lookup("miniAMR")
	avg := func(in Input) time.Duration {
		var total time.Duration
		for i := 0; i < 20; i++ {
			e, err := s.Instantiate(in, 4, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += e.Duration()
		}
		return total / 20
	}
	if !(avg(InputX) < avg(InputY) && avg(InputY) < avg(InputZ) && avg(InputZ) < avg(InputL)) {
		t.Error("durations should grow with input size")
	}
}

// TestHeadlineLevelsReproduceTable4 checks the noise-free levels that
// generate Table 4 of the paper.
func TestHeadlineLevelsReproduceTable4(t *testing.T) {
	mi := headlineIndex(t)
	rng := rand.New(rand.NewSource(4))
	level := func(app string, in Input, node int) float64 {
		s, ok := Lookup(app)
		if !ok {
			t.Fatalf("no app %s", app)
		}
		e, err := s.Instantiate(in, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Sample the ideal at 90s (mid-window) and strip the ripple by
		// averaging over a full ripple period.
		period := s.ripplePeriod
		n := 0
		sum := 0.0
		for dt := time.Duration(0); dt < period; dt += 100 * time.Millisecond {
			sum += e.Ideal(mi, node, 90*time.Second+dt)
			n++
		}
		return sum / float64(n)
	}
	round2 := func(v float64) float64 { return math.Round(v/100) * 100 }

	// ft/mg flat and input-invariant.
	for _, in := range []Input{InputX, InputY, InputZ} {
		for node := 0; node < 4; node++ {
			if got := round2(level("ft", in, node)); got != 6000 {
				t.Errorf("ft_%s node %d ≈ %v, want 6000", in, node, got)
			}
			if got := round2(level("mg", in, node)); got != 6100 {
				t.Errorf("mg_%s node %d ≈ %v, want 6100", in, node, got)
			}
		}
	}
	// SP and BT collide at depth-2 rounding on every node.
	for node := 0; node < 4; node++ {
		sp := round2(level("sp", InputX, node))
		bt := round2(level("bt", InputX, node))
		if sp != bt {
			t.Errorf("node %d: sp %v and bt %v should collide at depth 2", node, sp, bt)
		}
	}
	// ...but separate at finer rounding (the underlying levels differ).
	if level("sp", InputX, 0) == level("bt", InputX, 0) {
		t.Error("sp and bt underlying levels should differ")
	}
	// miniAMR is input-dependent.
	x := level("miniAMR", InputX, 0)
	z := level("miniAMR", InputZ, 0)
	if z < x*1.2 {
		t.Errorf("miniAMR Z level %v should be well above X level %v", z, x)
	}
}

func headlineIndex(t *testing.T) int {
	t.Helper()
	for i, m := range Metrics() {
		if m.Name == HeadlineMetric {
			return i
		}
	}
	t.Fatal("headline metric missing")
	return -1
}

func TestConstantMetricsAreConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var idx []int
	for i, m := range Metrics() {
		if m.Kind == KindConstant {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		t.Fatal("catalog should include constant metrics")
	}
	ft, _ := Lookup("ft")
	cg, _ := Lookup("cg")
	e1, _ := ft.Instantiate(InputX, 4, rng)
	e2, _ := cg.Instantiate(InputZ, 4, rng)
	for _, mi := range idx {
		v1 := e1.Ideal(mi, 0, 90*time.Second)
		v2 := e2.Ideal(mi, 3, 200*time.Second)
		if v1 != v2 {
			t.Errorf("constant metric %s differs across apps: %v vs %v",
				Metrics()[mi].Name, v1, v2)
		}
	}
}

func TestExecutionDeterminism(t *testing.T) {
	s, _ := Lookup("kripke")
	e1, err := s.Instantiate(InputY, 4, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Instantiate(InputY, 4, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Duration() != e2.Duration() {
		t.Error("same seed should reproduce duration")
	}
	mi := headlineIndex(t)
	for node := 0; node < 4; node++ {
		a := e1.Ideal(mi, node, 83*time.Second)
		b := e2.Ideal(mi, node, 83*time.Second)
		if a != b {
			t.Errorf("same seed should reproduce ideals: %v vs %v", a, b)
		}
	}
}

func TestLabelStringParse(t *testing.T) {
	cases := []Label{
		{App: "ft", Input: InputX},
		{App: "miniAMR", Input: InputZ},
		{App: "CoMD", Input: InputL},
	}
	for _, l := range cases {
		got, err := ParseLabel(l.String())
		if err != nil || got != l {
			t.Errorf("round trip %v -> %q -> %v (%v)", l, l.String(), got, err)
		}
	}
	for _, bad := range []string{"", "ft", "ft_Q", "_X"} {
		if _, err := ParseLabel(bad); err == nil {
			t.Errorf("ParseLabel(%q) should fail", bad)
		}
	}
	// App names containing underscores survive the round trip.
	l := Label{App: "my_app", Input: InputY}
	got, err := ParseLabel(l.String())
	if err != nil || got != l {
		t.Errorf("underscore app round trip failed: %v %v", got, err)
	}
}

func TestLabelParseQuick(t *testing.T) {
	f := func(app string, which uint8) bool {
		for _, r := range app {
			if r == '_' || r == 0 {
				return true // covered separately; final-underscore split is documented
			}
		}
		if app == "" {
			return true
		}
		in := AllInputs[int(which)%len(AllInputs)]
		l := Label{App: app, Input: in}
		got, err := ParseLabel(l.String())
		return err == nil && got == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSortLabels(t *testing.T) {
	ls := []Label{
		{App: "mg", Input: InputX},
		{App: "ft", Input: InputZ},
		{App: "ft", Input: InputX},
	}
	SortLabels(ls)
	want := []Label{
		{App: "ft", Input: InputX},
		{App: "ft", Input: InputZ},
		{App: "mg", Input: InputX},
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("SortLabels = %v", ls)
		}
	}
}

func TestAppMultiplierSpacing(t *testing.T) {
	// Strongly separating metrics must space all 11 applications with
	// a guaranteed minimum gap.
	m, _ := lookupMetric("Committed_AS_meminfo")
	var muls []float64
	for _, app := range Names() {
		muls = append(muls, appMultiplier(app, m))
	}
	for i := 0; i < len(muls); i++ {
		for j := i + 1; j < len(muls); j++ {
			gap := math.Abs(muls[i] - muls[j])
			if gap < 0.08 {
				t.Errorf("apps %s and %s multipliers too close: %v",
					Names()[i], Names()[j], gap)
			}
		}
	}
	// Separation-free metrics multiply by exactly 1.
	c, _ := lookupMetric("MemTotal_meminfo")
	for _, app := range Names() {
		if appMultiplier(app, c) != 1 {
			t.Errorf("constant metric should have unit multiplier for %s", app)
		}
	}
}

func TestHash01Range(t *testing.T) {
	f := func(a, b string) bool {
		v := hash01(a, b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// Deterministic.
	if hash01("x", "y") != hash01("x", "y") {
		t.Error("hash01 must be deterministic")
	}
	// Part boundaries matter: ("ab","c") != ("a","bc").
	if hash01("ab", "c") == hash01("a", "bc") {
		t.Error("hash01 should separate part boundaries")
	}
}
