package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// exactWindows overlap and differ in length; a column shorter than
// 180 s leaves some of them partly or wholly uncovered.
var exactWindows = []telemetry.Window{
	{Start: 0, End: 60 * time.Second},
	{Start: 60 * time.Second, End: 120 * time.Second},
	{Start: 120 * time.Second, End: 180 * time.Second},
	{Start: 30 * time.Second, End: 90 * time.Second},
	{Start: 0, End: 180 * time.Second},
}

// exactDict returns the empty one-metric dictionary the columns are
// streamed against; streams only read it.
func exactDict(tb testing.TB) *Dictionary {
	tb.Helper()
	d, err := NewDictionary(Config{Metrics: []string{"m"}, Windows: exactWindows, Depth: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// checkStreamMatchesSeries feeds a one-node stream the 1 Hz column vals
// (sample i at offset i s) in the given order of sample indexes, as
// FeedRun runs of the given lengths (cycled). It fails unless, for
// every window, the stream reports the bits Series.WindowMean reports
// on the stored column, and has a mean exactly where the series has one.
func checkStreamMatchesSeries(tb testing.TB, d *Dictionary, kind string, vals []float64, order, runLens []int) {
	tb.Helper()
	s := NewStream(d, 1)
	var offs []time.Duration
	var vs []float64
	for k, r := 0, 0; k < len(order); r++ {
		n := min(runLens[r%len(runLens)], len(order)-k)
		offs, vs = offs[:0], vs[:0]
		for _, i := range order[k : k+n] {
			offs = append(offs, time.Duration(i)*time.Second)
			vs = append(vs, vals[i])
		}
		s.FeedRun("m", 0, offs, vs)
		k += n
	}
	series := telemetry.NewSeriesFromColumns("m", 0, nil, vals)
	for _, w := range exactWindows {
		want, err := series.WindowMean(w)
		got, ok := s.WindowMean("m", 0, w)
		if ok != (err == nil) || math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%s column of %d, window %v, runs %v: stream (%v, %v), series (%v, %v)",
				kind, len(vals), w, runLens, got, ok, want, err)
		}
	}
}

// checkRatMeans fails unless every window mean of the column equals its
// exact sum (math/big) rounded once to float64, divided by the count.
func checkRatMeans(tb testing.TB, vals []float64) {
	tb.Helper()
	series := telemetry.NewSeriesFromColumns("m", 0, nil, vals)
	for _, w := range exactWindows {
		sum, n := new(big.Rat), 0
		for i, x := range vals {
			if w.Contains(time.Duration(i) * time.Second) {
				sum.Add(sum, new(big.Rat).SetFloat64(x))
				n++
			}
		}
		if n == 0 {
			continue
		}
		exact, _ := sum.Float64()
		if got, err := series.WindowMean(w); err != nil || got != exact/float64(n) {
			tb.Fatalf("window %v of %d integers: mean (%v, %v), exact sum rounded once %v",
				w, len(vals), got, err, exact/float64(n))
		}
	}
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestStreamMatchesSeries pins the window-mean contract between the live
// and the stored path over columns of mixed magnitude. Fed in time
// order, under any split into runs, the stream reports the bits of
// Series.WindowMean for every kind of value, a sum that overflows
// included (both report no mean). For integer columns whose absolute
// sum stays below 2^53 it does so in any arrival order, and both equal
// the exact mean rounded once.
func TestStreamMatchesSeries(t *testing.T) {
	d := exactDict(t)
	rng := rand.New(rand.NewSource(20))
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	kinds := []struct {
		name    string
		draw    func() float64
		integer bool
	}{
		// Up to 2^44 each, at most 220 samples: the sum stays below 2^53.
		{"integer", func() float64 { return sign() * float64(rng.Int63n(1<<rng.Intn(45))) }, true},
		{"dyadic", func() float64 { return sign() * math.Ldexp(float64(rng.Int63n(1<<20)), -rng.Intn(40)) }, false},
		{"float", func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-4)) }, false},
		// Finite samples whose sum may overflow.
		{"huge", func() float64 { return sign() * (1 + rng.Float64()) * 1e307 }, false},
	}
	runLens := func() []int {
		lens := make([]int, 1+rng.Intn(4))
		for i := range lens {
			lens[i] = 1 + rng.Intn(70)
		}
		return lens
	}
	for trial := 0; trial < 200; trial++ {
		for _, k := range kinds {
			vals := make([]float64, 100+rng.Intn(120))
			for i := range vals {
				vals[i] = k.draw()
			}
			checkStreamMatchesSeries(t, d, k.name, vals, identity(len(vals)), runLens())
			if !k.integer {
				continue
			}
			for p := 0; p < 3; p++ {
				checkStreamMatchesSeries(t, d, "shuffled integer", vals, rng.Perm(len(vals)), runLens())
			}
			checkRatMeans(t, vals)
		}
	}
}

// FuzzStreamMatchesSeries checks the same identities over fuzzed
// columns. raw supplies 8 bytes per sample: its finite float64 bits
// form a column fed in time order, and the same bits shifted down to a
// 44-bit integer form a column fed in the order perm seeds; cuts sets
// the run lengths.
func FuzzStreamMatchesSeries(f *testing.F) {
	d := exactDict(f)
	huge := make([]byte, 8*180)
	for i := 0; i < 180; i++ {
		binary.LittleEndian.PutUint64(huge[8*i:], math.Float64bits(1.5e307))
	}
	f.Add(huge, int64(1), []byte{59, 1, 120})
	ramp := make([]byte, 8*150)
	for i := 0; i < 150; i++ {
		binary.LittleEndian.PutUint64(ramp[8*i:], math.Float64bits(6000+float64(i%7)/3))
	}
	f.Add(ramp, int64(7), []byte{3})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(0), []byte{})
	f.Fuzz(func(t *testing.T, raw []byte, perm int64, cuts []byte) {
		n := min(len(raw)/8, 240)
		floats := make([]float64, 0, n)
		ints := make([]float64, n)
		for i := range ints {
			bits := binary.LittleEndian.Uint64(raw[8*i:])
			if x := math.Float64frombits(bits); !math.IsNaN(x) && !math.IsInf(x, 0) {
				floats = append(floats, x)
			}
			// |v| < 2^43 and n <= 240: the absolute sum stays below 2^53.
			ints[i] = float64(int64(bits) >> 20)
		}
		lens := []int{max(n, 1)}
		if len(cuts) > 0 {
			lens = make([]int, len(cuts))
			for i, c := range cuts {
				lens[i] = 1 + int(c)%64
			}
		}
		checkStreamMatchesSeries(t, d, "float", floats, identity(len(floats)), lens)
		order := rand.New(rand.NewSource(perm)).Perm(n)
		checkStreamMatchesSeries(t, d, "shuffled integer", ints, order, lens)
	})
}

// TestOverflowingWindowHasNoKey pins that a window whose finite samples
// sum past MaxFloat64 has no mean on either path, so it teaches and
// matches no key: Learn over the stored telemetry stores no "NaN" key,
// and a stream fed the same samples counts only the other node.
func TestOverflowingWindowHasNoKey(t *testing.T) {
	ns := telemetry.NewNodeSet()
	for node := 0; node < 2; node++ {
		series := telemetry.NewSeries(apps.HeadlineMetric, node, 180)
		for i := 0; i < 180; i++ {
			off, v := time.Duration(i)*time.Second, 6000.0
			if node == 0 && telemetry.PaperWindow.Contains(off) {
				v = 1.5e307
			}
			series.Append(off, v)
		}
		ns.Put(series)
	}
	d, _ := NewDictionary(paperCfg(3))
	d.Learn(NewTelemetrySource(ns), apps.Label{App: "ft", Input: apps.InputX})
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || strings.Contains(buf.String(), "NaN") {
		t.Fatalf("Learn stored %d keys: %s", d.Len(), buf.String())
	}
	stream := NewStream(d, 2)
	for node := 0; node < 2; node++ {
		series := ns.Get(node, apps.HeadlineMetric)
		stream.FeedRun(apps.HeadlineMetric, node, series.AppendOffsets(nil), series.ValuesView())
	}
	if m, ok := stream.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow); ok {
		t.Errorf("stream mean of the overflowing window = %v, want none", m)
	}
	for name, res := range map[string]Result{"stream": stream.Recognize(), "stored": d.Recognize(NewTelemetrySource(ns))} {
		if res.Total != 1 || res.Matched != 1 || res.Top() != "ft" {
			t.Errorf("%s recognition = %+v, want the one finite key matched", name, res)
		}
	}
}
