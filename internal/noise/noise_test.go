package noise

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestNoneIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []float64{0, 1, -5, 1e9} {
		if got := (None{}).Perturb(rng, time.Second, v); got != v {
			t.Errorf("None.Perturb(%v) = %v", v, got)
		}
	}
}

func TestGaussianStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Gaussian{SigmaRel: 0.01}
	const ideal = 1000.0
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Perturb(rng, 0, ideal)
		sum += v
		sumSq += (v - ideal) * (v - ideal)
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq / float64(n))
	if math.Abs(mean-ideal) > 0.5 {
		t.Errorf("mean = %v, want ≈ %v", mean, ideal)
	}
	if math.Abs(sd-10) > 0.5 {
		t.Errorf("sd = %v, want ≈ 10", sd)
	}
}

func TestGaussianZeroSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := (Gaussian{}).Perturb(rng, 0, 42); got != 42 {
		t.Errorf("zero-sigma Gaussian should be identity, got %v", got)
	}
}

func TestGaussianAbsoluteSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Gaussian{SigmaAbs: 5}
	// Even with ideal 0, absolute sigma must perturb.
	var moved bool
	for i := 0; i < 10; i++ {
		if g.Perturb(rng, 0, 0) != 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("absolute sigma should perturb a zero ideal")
	}
}

func TestSpikeProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Spike{Prob: 0.1, Magnitude: 2}
	n, hits := 50000, 0
	for i := 0; i < n; i++ {
		v := s.Perturb(rng, 0, 100)
		if v != 100 {
			if v != 300 {
				t.Fatalf("spiked value = %v, want 300", v)
			}
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("spike rate = %v, want ≈ 0.1", rate)
	}
	if (Spike{}).Perturb(rng, 0, 100) != 100 {
		t.Error("zero-prob spike should be identity")
	}
}

func TestDriftGrowsLinearly(t *testing.T) {
	d := Drift{PerMinute: 0.01}
	if got := d.Perturb(nil, 0, 100); got != 100 {
		t.Errorf("drift at t=0 should be identity, got %v", got)
	}
	got := d.Perturb(nil, 2*time.Minute, 100)
	if math.Abs(got-102) > 1e-9 {
		t.Errorf("drift at 2min = %v, want 102", got)
	}
}

func TestInitTransientDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	it := InitTransient{Amplitude: 1.0, Settle: 10 * time.Second}
	early := it.Perturb(rng, 0, 100)
	if math.Abs(early-200) > 1e-9 {
		t.Errorf("transient at t=0 = %v, want 200", early)
	}
	late := it.Perturb(rng, 2*time.Minute, 100)
	if math.Abs(late-100) > 0.01 {
		t.Errorf("transient at 2min = %v, want ≈ 100", late)
	}
	if got := (InitTransient{}).Perturb(rng, 0, 100); got != 100 {
		t.Errorf("zero-settle transient should be identity, got %v", got)
	}
}

func TestInterferenceIsPerExecution(t *testing.T) {
	// With Prob 1 every sample of the series is scaled identically.
	rng := rand.New(rand.NewSource(7))
	in := &Interference{Prob: 1, Level: 0.1}
	for i := 0; i < 5; i++ {
		if got := in.Perturb(rng, 0, 100); math.Abs(got-110) > 1e-9 {
			t.Fatalf("active interference = %v, want 110", got)
		}
	}
	// With Prob 0 the series is untouched.
	off := &Interference{Prob: 0, Level: 0.1}
	for i := 0; i < 5; i++ {
		if got := off.Perturb(rng, 0, 100); got != 100 {
			t.Fatalf("inactive interference = %v, want 100", got)
		}
	}
}

func TestInterferenceActivationRate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	active := 0
	const n = 20000
	for i := 0; i < n; i++ {
		in := &Interference{Prob: 0.25, Level: 1}
		if in.Perturb(rng, 0, 1) != 1 {
			active++
		}
	}
	rate := float64(active) / float64(n)
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("activation rate = %v, want ≈ 0.25", rate)
	}
}

func TestChainComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := Chain{Drift{PerMinute: 0.01}, Drift{PerMinute: 0.01}}
	got := c.Perturb(rng, time.Minute, 100)
	want := 100 * 1.01 * 1.01
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("chained drift = %v, want %v", got, want)
	}
	if got := (Chain{}).Perturb(rng, 0, 5); got != 5 {
		t.Error("empty chain should be identity")
	}
}

func TestProfileNewChainIndependence(t *testing.T) {
	// Two chains from the same profile must carry independent
	// interference state.
	p := Profile{InterferenceProb: 1, InterferenceLevel: 0.5}
	rng := rand.New(rand.NewSource(10))
	c1 := p.NewChain()
	c2 := p.NewChain()
	v1 := c1.Perturb(rng, time.Minute*5, 100)
	v2 := c2.Perturb(rng, time.Minute*5, 100)
	if math.Abs(v1-150) > 1 || math.Abs(v2-150) > 1 {
		t.Errorf("both chains should be interfered: %v %v", v1, v2)
	}
}

func TestDefaultProfileWindowIsQuiet(t *testing.T) {
	// By 60s the init transient of the default profile must have
	// decayed to well under the rounding step of the headline metric,
	// otherwise Table 4 levels shift.
	p := DefaultProfile()
	decay := math.Exp(-60.0 / p.InitSettle.Seconds())
	if p.InitAmplitude*decay > 0.01 {
		t.Errorf("init transient residual at 60s = %v, want < 1%%",
			p.InitAmplitude*decay)
	}
}
