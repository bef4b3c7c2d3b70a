package apps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Input identifies a problem size. The dataset uses X, Y, Z and L, with
// L available only for a subset of applications (Table 2).
type Input string

// The four input sizes of the dataset.
const (
	InputX Input = "X"
	InputY Input = "Y"
	InputZ Input = "Z"
	InputL Input = "L"
)

// AllInputs lists the input sizes in increasing problem-size order.
var AllInputs = []Input{InputX, InputY, InputZ, InputL}

// inputIndex maps an input size to its position in the size ordering.
func inputIndex(in Input) int {
	switch in {
	case InputX:
		return 0
	case InputY:
		return 1
	case InputZ:
		return 2
	case InputL:
		return 3
	}
	return -1
}

// Spec describes the modelled behaviour of one application.
type Spec struct {
	// Name is the application name as it appears in dataset labels.
	Name string
	// Inputs lists the supported input sizes.
	Inputs []Input

	// headline holds explicit nr_mapped_vmstat levels per input; the
	// per-node pattern cycles over the nodes of an execution. These
	// values reproduce Table 4 of the paper.
	headline map[Input][]float64
	// headlineExecSigma is the relative cross-execution variability of
	// the headline levels; miniAMR Z uses a large value to reproduce
	// the multiple fingerprints of Table 4.
	headlineExecSigma map[Input]float64

	// inputGain scales how strongly this application's gauge metrics
	// react to input size (multiplies MetricDef.InputSens).
	inputGain float64
	// nodeSkew is the per-node relative level skew applied to gauge
	// metrics (cycled over nodes); nil means uniform node usage.
	nodeSkew []float64
	// ripplePeriod and rippleGain shape the iteration oscillation of
	// rate metrics.
	ripplePeriod time.Duration
	rippleGain   float64
	// baseDuration is the X-input execution time; larger inputs run
	// longer by durationGrowth per input step.
	baseDuration   time.Duration
	durationGrowth float64
}

// xyz and xyzl are the two input sets of Table 2.
var (
	xyz  = []Input{InputX, InputY, InputZ}
	xyzl = []Input{InputX, InputY, InputZ, InputL}
)

// flat returns the same headline level for every node.
func flat(v float64) []float64 { return []float64{v} }

// specs models the eleven applications. Headline (nr_mapped_vmstat)
// levels reproduce Table 4: ft/mg/lu/miniGhost input-invariant, the
// SP/BT near-collision (identical keys at rounding depth 2, distinct at
// depth 3), SP/BT/LU using node 0 differently from the others, and
// miniAMR's strongly input-dependent, high-variance levels. cg and
// kripke are additionally input-sensitive on the headline metric so the
// "hard input" protocol degrades as in Figure 2.
var specs = []Spec{
	{
		Name: "ft", Inputs: xyz,
		headline:  map[Input][]float64{InputX: flat(6000), InputY: flat(6000), InputZ: flat(6000)},
		inputGain: 0.4, ripplePeriod: 7 * time.Second, rippleGain: 1.0,
		baseDuration: 170 * time.Second, durationGrowth: 0.45,
	},
	{
		Name: "mg", Inputs: xyz,
		headline:  map[Input][]float64{InputX: flat(6100), InputY: flat(6100), InputZ: flat(6100)},
		inputGain: 0.5, ripplePeriod: 9 * time.Second, rippleGain: 0.9,
		baseDuration: 160 * time.Second, durationGrowth: 0.5,
	},
	{
		Name: "sp", Inputs: xyz,
		headline: map[Input][]float64{
			InputX: {7620, 7530, 7530, 7130},
			InputY: {7620, 7530, 7530, 7130},
			InputZ: {7620, 7530, 7530, 7130},
		},
		inputGain: 0.4, nodeSkew: []float64{0.012, 0, 0, -0.045},
		ripplePeriod: 11 * time.Second, rippleGain: 1.1,
		baseDuration: 200 * time.Second, durationGrowth: 0.4,
	},
	{
		Name: "lu", Inputs: xyz,
		headline: map[Input][]float64{
			InputX: {8440, 8330, 8330, 8330},
			InputY: {8440, 8330, 8330, 8330},
			InputZ: {8440, 8330, 8330, 8330},
		},
		inputGain: 0.4, nodeSkew: []float64{0.013, 0, 0, 0},
		ripplePeriod: 8 * time.Second, rippleGain: 1.0,
		baseDuration: 210 * time.Second, durationGrowth: 0.4,
	},
	{
		Name: "bt", Inputs: xyz,
		headline: map[Input][]float64{
			InputX: {7580, 7470, 7470, 7070},
			InputY: {7580, 7470, 7470, 7070},
			InputZ: {7580, 7470, 7470, 7070},
		},
		inputGain: 0.4, nodeSkew: []float64{0.011, 0, 0, -0.047},
		ripplePeriod: 12 * time.Second, rippleGain: 1.1,
		baseDuration: 220 * time.Second, durationGrowth: 0.4,
	},
	{
		Name: "cg", Inputs: xyz,
		headline:  map[Input][]float64{InputX: flat(6550), InputY: flat(6840), InputZ: flat(7340)},
		inputGain: 0.8, ripplePeriod: 10 * time.Second, rippleGain: 1.3,
		baseDuration: 180 * time.Second, durationGrowth: 0.55,
	},
	{
		Name: "CoMD", Inputs: xyz,
		headline:  map[Input][]float64{InputX: flat(5600), InputY: flat(5600), InputZ: flat(5600)},
		inputGain: 0.7, ripplePeriod: 14 * time.Second, rippleGain: 0.8,
		baseDuration: 190 * time.Second, durationGrowth: 0.5,
	},
	{
		Name: "miniGhost", Inputs: xyzl,
		headline: map[Input][]float64{
			InputX: flat(7880), InputY: flat(7880), InputZ: flat(7880), InputL: flat(7880),
		},
		inputGain: 0.5, ripplePeriod: 13 * time.Second, rippleGain: 0.9,
		baseDuration: 175 * time.Second, durationGrowth: 0.5,
	},
	{
		Name: "miniAMR", Inputs: xyzl,
		headline: map[Input][]float64{
			InputX: flat(7800), InputY: flat(8000), InputZ: flat(10550), InputL: flat(13100),
		},
		headlineExecSigma: map[Input]float64{InputZ: 0.009, InputL: 0.006},
		inputGain:         3.0, ripplePeriod: 17 * time.Second, rippleGain: 1.2,
		baseDuration: 230 * time.Second, durationGrowth: 0.45,
	},
	{
		Name: "miniMD", Inputs: xyzl,
		headline: map[Input][]float64{
			InputX: flat(5150), InputY: flat(5150), InputZ: flat(5150), InputL: flat(5150),
		},
		inputGain: 0.6, ripplePeriod: 15 * time.Second, rippleGain: 0.8,
		baseDuration: 185 * time.Second, durationGrowth: 0.5,
	},
	{
		Name: "kripke", Inputs: xyzl,
		headline: map[Input][]float64{
			InputX: flat(9300), InputY: flat(9560), InputZ: flat(9830), InputL: flat(9830),
		},
		inputGain: 0.7, ripplePeriod: 16 * time.Second, rippleGain: 1.0,
		baseDuration: 240 * time.Second, durationGrowth: 0.45,
	},
}

// Catalog returns the specs of all eleven applications in dataset order.
// The returned slice is shared; callers must not modify it.
func Catalog() []Spec { return specs }

// Names returns the application names in dataset order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Lookup returns the spec of the named application.
func Lookup(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// SupportsInput reports whether the application runs with the given
// input size.
func (s Spec) SupportsInput(in Input) bool {
	for _, i := range s.Inputs {
		if i == in {
			return true
		}
	}
	return false
}

// steadyLevel returns the noise-free steady-state level of metric m for
// this application, input size and node (of numNodes). It combines the
// explicit headline table with hash-derived levels for the remaining
// catalog metrics.
func (s Spec) steadyLevel(m MetricDef, in Input, node, numNodes int) float64 {
	if m.Name == HeadlineMetric {
		if pat, ok := s.headline[in]; ok && len(pat) > 0 {
			return pat[node%len(pat)]
		}
	}
	if m.Kind == KindConstant {
		return m.Base
	}
	// Application multiplier: applications are spaced evenly across the
	// metric's separation range, in a per-metric shuffled order, so the
	// minimum inter-application gap is controlled by the separation
	// grade rather than left to chance.
	level := m.Base * appMultiplier(s.Name, m)
	// Input scaling: a per-(app,metric) sensitivity in
	// [0, InputSens×inputGain], compounded per input step.
	sens := m.InputSens * s.inputGain * hash01(s.Name, m.Name, "input")
	if sens > 0 {
		level *= math.Pow(1+sens, float64(inputIndex(in)))
	}
	// Node skew: applications such as SP/BT/LU use node 0 differently.
	if len(s.nodeSkew) > 0 && m.Kind == KindGauge {
		level *= 1 + s.nodeSkew[node%len(s.nodeSkew)]
	}
	// Rate metrics additionally vary with the node's position in the
	// communication topology.
	if m.Kind == KindRate && numNodes > 1 {
		level *= 1 + 0.01*centered(s.Name, m.Name, fmt.Sprint(node%numNodes))
	}
	return level
}

// appMultiplier returns the relative level of the application on the
// metric. Applications are ranked by a per-metric hash shuffle and
// spaced evenly over [1-spread, 1+spread], guaranteeing a minimum
// inter-application gap of 2·spread/(n-1) — the property that makes
// strongly separating metrics reach F-scores near 1.0 in Table 3 while
// weakly separating ones collide.
func appMultiplier(app string, m MetricDef) float64 {
	spread := sepSpread(m.Sep)
	if spread == 0 {
		return 1
	}
	mulOnce.Do(buildAppMultipliers)
	return mulCache[m.Name][app]
}

var (
	mulOnce  sync.Once
	mulCache map[string]map[string]float64
)

func buildAppMultipliers() {
	mulCache = make(map[string]map[string]float64, len(catalog))
	names := Names()
	n := len(names)
	for _, m := range catalog {
		spread := sepSpread(m.Sep)
		order := make([]string, n)
		copy(order, names)
		sort.Slice(order, func(i, j int) bool {
			return hash01(order[i], m.Name, "order") < hash01(order[j], m.Name, "order")
		})
		byApp := make(map[string]float64, n)
		for pos, app := range order {
			frac := 0.5
			if n > 1 {
				frac = float64(pos) / float64(n-1)
			}
			byApp[app] = 1 + spread*(2*frac-1)
		}
		mulCache[m.Name] = byApp
	}
}

// Execution is one instantiated run of an application: per-(metric,node)
// levels including the cross-execution variability drawn at
// instantiation time, a duration, and ripple phases. It is the object
// the cluster simulator samples.
type Execution struct {
	Spec     Spec
	Input    Input
	NumNodes int

	duration time.Duration
	// levels[metricIndex][node]
	levels [][]float64
	// phases[metricIndex] is the ripple phase offset of this run.
	phases []float64
	// growthAmp is the relative height of the miniAMR-style staircase
	// growth applied after the fingerprint window (0 for most apps).
	growthAmp float64
}

// Instantiate draws one execution of the application with the given
// input on numNodes nodes. All randomness comes from rng. It returns an
// error for unsupported inputs or a non-positive node count.
func (s Spec) Instantiate(in Input, numNodes int, rng *rand.Rand) (*Execution, error) {
	if !s.SupportsInput(in) {
		return nil, fmt.Errorf("apps: %s does not support input %s", s.Name, in)
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("apps: non-positive node count %d", numNodes)
	}
	e := &Execution{Spec: s, Input: in, NumNodes: numNodes}

	// Duration: base × growth^step × (1 ± 10%).
	d := s.baseDuration.Seconds() * math.Pow(1+s.durationGrowth, float64(inputIndex(in)))
	d *= 0.9 + 0.2*rng.Float64()
	e.duration = time.Duration(d * float64(time.Second))

	mets := Metrics()
	e.levels = make([][]float64, len(mets))
	e.phases = make([]float64, len(mets))
	for mi, m := range mets {
		e.phases[mi] = rng.Float64() * 2 * math.Pi
		// Cross-execution level variability: gauges are stable run to
		// run, rates wobble more, and the headline metric may carry an
		// app/input-specific sigma (miniAMR Z/L).
		sigma := 0.0008
		if m.Kind == KindRate {
			sigma = 0.005
		}
		if m.Kind == KindConstant {
			sigma = 0
		}
		if m.Name == HeadlineMetric {
			if hs, ok := s.headlineExecSigma[in]; ok {
				sigma = hs
			}
		}
		execFactor := 1 + sigma*rng.NormFloat64()
		row := make([]float64, numNodes)
		for node := 0; node < numNodes; node++ {
			row[node] = s.steadyLevel(m, in, node, numNodes) * execFactor
		}
		e.levels[mi] = row
	}
	if s.Name == "miniAMR" {
		e.growthAmp = 0.03
	}
	return e, nil
}

// Duration reports how long this execution runs.
func (e *Execution) Duration() time.Duration { return e.duration }

// Ideal returns the noise-free value of the metric with catalog index
// metricIndex on the given node at offset t from execution start. The
// monitoring layer perturbs this through the noise models.
func (e *Execution) Ideal(metricIndex, node int, t time.Duration) float64 {
	m := Metrics()[metricIndex]
	v := e.levels[metricIndex][node]
	if m.Kind == KindConstant {
		return v
	}
	// Iteration ripple: strong on rates, faint on gauges.
	amp := 0.002
	if m.Kind == KindRate {
		amp = 0.04
	}
	amp *= e.Spec.rippleGain
	period := e.Spec.ripplePeriod.Seconds()
	if period > 0 {
		v *= 1 + amp*math.Sin(2*math.Pi*t.Seconds()/period+e.phases[metricIndex])
	}
	// Staircase growth (adaptive mesh refinement) kicks in only after
	// the fingerprint window so Table 4 levels stay put.
	if e.growthAmp > 0 && m.Kind == KindGauge && t > 130*time.Second {
		steps := math.Floor((t.Seconds() - 130) / 40)
		v *= 1 + e.growthAmp*steps
	}
	return v
}

// Label identifies an (application, input size) pair, e.g. {ft, X}. Its
// string form "ft_X" matches the value format of Table 4.
type Label struct {
	App   string
	Input Input
}

// String renders the label as "app_input".
func (l Label) String() string { return l.App + "_" + string(l.Input) }

// ParseLabel parses the "app_input" form back into a Label. The
// application name may itself contain underscores; the input size is the
// final segment.
func ParseLabel(s string) (Label, error) {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '_' {
			l := Label{App: s[:i], Input: Input(s[i+1:])}
			if inputIndex(l.Input) < 0 {
				return Label{}, fmt.Errorf("apps: bad input size in label %q", s)
			}
			return l, nil
		}
	}
	return Label{}, fmt.Errorf("apps: bad label %q", s)
}

// SortLabels orders labels by application then input size, the order
// used in reports and in Table 4.
func SortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].App != ls[j].App {
			return ls[i].App < ls[j].App
		}
		return inputIndex(ls[i].Input) < inputIndex(ls[j].Input)
	})
}
