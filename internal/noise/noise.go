// Package noise provides the perturbation models that make the
// synthetic telemetry "noisy" in the sense the paper cares about: a
// fingerprint must survive Gaussian measurement jitter, occasional
// spikes, slow drift, and the turbulent initialization phase that
// motivates the paper's [60s,120s) window choice.
//
// Every model is a deterministic function of a caller-supplied
// *rand.Rand, so identical seeds reproduce identical telemetry.
package noise

import (
	"math"
	"math/rand"
	"time"
)

// Model perturbs the ideal value of a metric at a given offset from
// execution start. Implementations must be pure given the rng state.
type Model interface {
	// Perturb returns the observed value derived from the ideal value
	// at the given offset.
	Perturb(rng *rand.Rand, offset time.Duration, ideal float64) float64
}

// None is the identity model, useful for calibration runs and tests.
type None struct{}

// Perturb returns ideal unchanged.
func (None) Perturb(_ *rand.Rand, _ time.Duration, ideal float64) float64 { return ideal }

// Gaussian adds zero-mean Gaussian jitter. Sigma may be absolute
// (SigmaAbs) or relative to the ideal value (SigmaRel); both contribute.
type Gaussian struct {
	SigmaAbs float64
	SigmaRel float64
}

// Perturb adds one draw of Gaussian noise.
func (g Gaussian) Perturb(rng *rand.Rand, _ time.Duration, ideal float64) float64 {
	sigma := g.SigmaAbs + math.Abs(ideal)*g.SigmaRel
	if sigma <= 0 {
		return ideal
	}
	return ideal + rng.NormFloat64()*sigma
}

// Spike injects rare, large positive excursions — the "someone else's
// job hammered the node for a second" events seen in shared-cluster
// telemetry.
type Spike struct {
	// Prob is the per-sample probability of a spike.
	Prob float64
	// Magnitude is the spike height relative to the ideal value.
	Magnitude float64
}

// Perturb occasionally adds a spike of Magnitude×ideal.
func (s Spike) Perturb(rng *rand.Rand, _ time.Duration, ideal float64) float64 {
	if s.Prob <= 0 || rng.Float64() >= s.Prob {
		return ideal
	}
	return ideal + math.Abs(ideal)*s.Magnitude
}

// Drift applies a slow linear trend over the execution, modelling memory
// leak-like growth or cache warm-up effects.
type Drift struct {
	// PerMinute is the relative change per minute of execution.
	PerMinute float64
}

// Perturb applies the accumulated drift at the given offset.
func (d Drift) Perturb(_ *rand.Rand, offset time.Duration, ideal float64) float64 {
	return ideal * (1 + d.PerMinute*offset.Minutes())
}

// InitTransient models the turbulent start-up phase: a decaying
// exponential excursion plus extra jitter that dies off after Settle.
// The paper's window choice of [60:120] exists precisely to dodge this.
type InitTransient struct {
	// Amplitude is the relative height of the excursion at offset 0.
	Amplitude float64
	// Settle is the time constant of the exponential decay.
	Settle time.Duration
	// ExtraSigmaRel is additional relative jitter applied while the
	// transient is alive.
	ExtraSigmaRel float64
}

// Perturb applies the decaying start-up excursion.
func (it InitTransient) Perturb(rng *rand.Rand, offset time.Duration, ideal float64) float64 {
	if it.Settle <= 0 {
		return ideal
	}
	decay := math.Exp(-offset.Seconds() / it.Settle.Seconds())
	v := ideal * (1 + it.Amplitude*decay)
	if it.ExtraSigmaRel > 0 {
		v += rng.NormFloat64() * math.Abs(ideal) * it.ExtraSigmaRel * decay
	}
	return v
}

// Interference models a noisy neighbour: with probability Prob per
// execution (decided on first use), the whole execution sees its values
// scaled by 1+Level. It captures the run-to-run variation that makes
// some (app,input) pairs produce more than one fingerprint (§5,
// "measurement variation and system noise").
type Interference struct {
	Prob  float64
	Level float64

	decided bool
	active  bool
}

// Perturb scales the value when the neighbour is active. The activation
// decision is drawn once per Interference instance, so one instance must
// be used per execution.
func (in *Interference) Perturb(rng *rand.Rand, _ time.Duration, ideal float64) float64 {
	if !in.decided {
		in.active = rng.Float64() < in.Prob
		in.decided = true
	}
	if !in.active {
		return ideal
	}
	return ideal * (1 + in.Level)
}

// Chain composes models left to right: the output of one is the ideal
// input of the next.
type Chain []Model

// Perturb applies each model in order.
func (c Chain) Perturb(rng *rand.Rand, offset time.Duration, ideal float64) float64 {
	v := ideal
	for _, m := range c {
		v = m.Perturb(rng, offset, v)
	}
	return v
}

// Profile describes the noise environment of one simulated cluster. The
// zero value is a quiet system.
type Profile struct {
	// Jitter is per-sample measurement noise, relative to the value.
	Jitter float64
	// SpikeProb and SpikeMagnitude configure rare excursions.
	SpikeProb      float64
	SpikeMagnitude float64
	// DriftPerMinute is slow relative growth per minute.
	DriftPerMinute float64
	// InitAmplitude and InitSettle shape the start-up transient.
	InitAmplitude float64
	InitSettle    time.Duration
	// InterferenceProb and InterferenceLevel configure whole-execution
	// neighbour interference.
	InterferenceProb  float64
	InterferenceLevel float64
}

// DefaultProfile mirrors a production cluster busy enough to be
// interesting: small relative jitter, occasional spikes, a strong
// initialization transient that has died off by the paper's 60-second
// window start, and a noisy neighbour in roughly one series out of
// fourteen. The magnitudes are calibrated so that fingerprint keys
// wobble across a handful of adjacent rounded values (the multiplicity
// visible in Table 4) without erasing cross-application separation.
func DefaultProfile() Profile {
	return Profile{
		Jitter:            0.002,
		SpikeProb:         0.002,
		SpikeMagnitude:    0.3,
		DriftPerMinute:    0.0005,
		InitAmplitude:     0.8,
		InitSettle:        12 * time.Second,
		InterferenceProb:  0.07,
		InterferenceLevel: 0.005,
	}
}

// NewChain instantiates a fresh model chain for one execution. A new
// chain must be created per execution because Interference carries
// per-execution state.
func (p Profile) NewChain() Chain {
	c := Chain{
		InitTransient{Amplitude: p.InitAmplitude, Settle: p.InitSettle, ExtraSigmaRel: p.Jitter * 4},
		Drift{PerMinute: p.DriftPerMinute},
		&Interference{Prob: p.InterferenceProb, Level: p.InterferenceLevel},
		Spike{Prob: p.SpikeProb, Magnitude: p.SpikeMagnitude},
		Gaussian{SigmaRel: p.Jitter},
	}
	return c
}
