package core

import (
	"repro/internal/apps"
)

// Unknown is the class name reported when no fingerprint of an
// execution matches the dictionary — the EFD's in-built safeguard
// against unknown applications (§5).
const Unknown = "unknown"

// Result is the outcome of recognizing one execution.
//
// Per-application votes and per-label input counts are held in dense
// accumulators indexed by the dictionary's interned app/label IDs; the
// Votes and Inputs methods materialize map views on demand, and
// VotesFor/InputCount read single cells without allocating. A Result
// produced by a Recognizer borrows the recognizer's buffers and is only
// valid until that recognizer's next call; Dictionary.Recognize returns
// a Result with freshly allocated buffers.
type Result struct {
	// Apps lists the most-matched application names. One element is
	// the normal case; several indicate a tie the dictionary cannot
	// break (e.g. SP/BT at rounding depth 2). Empty means no
	// fingerprint matched.
	Apps []string
	// Matched and Total count the execution's fingerprints that hit
	// the dictionary versus all constructed fingerprints.
	Matched int
	Total   int

	votes  []int32 // dense, indexed by app ID
	inputs []int32 // dense, indexed by label ID
	d      *Dictionary
}

// Recognized reports whether any fingerprint matched.
func (r Result) Recognized() bool { return len(r.Apps) > 0 }

// Top returns the first (tie-broken) application name, or Unknown when
// nothing matched. The paper evaluates exactly this value.
func (r Result) Top() string {
	if len(r.Apps) == 0 {
		return Unknown
	}
	return r.Apps[0]
}

// VotesFor returns the vote count of one application without
// allocating.
func (r Result) VotesFor(app string) int {
	if r.d == nil {
		return 0
	}
	i, ok := r.d.appOrder[app]
	if !ok || i >= len(r.votes) {
		return 0
	}
	return int(r.votes[i])
}

// Votes materializes the per-application vote counts as a map
// (applications with zero votes are absent). Each call allocates; hot
// paths should use VotesFor.
func (r Result) Votes() map[string]int {
	out := make(map[string]int)
	if r.d == nil {
		return out
	}
	for i, v := range r.votes {
		if v != 0 {
			out[r.d.apps[i]] = int(v)
		}
	}
	return out
}

// InputCount returns the match count of one full (application, input)
// label without allocating, for input-size estimation.
func (r Result) InputCount(label apps.Label) int {
	if r.d == nil {
		return 0
	}
	lid, ok := r.d.labelIDs[label]
	if !ok || int(lid) >= len(r.inputs) {
		return 0
	}
	return int(r.inputs[lid])
}

// Inputs materializes the per-label match counts as a map (labels with
// zero matches are absent). Each call allocates; hot paths should use
// InputCount.
func (r Result) Inputs() map[apps.Label]int {
	out := make(map[apps.Label]int)
	if r.d == nil {
		return out
	}
	for lid, v := range r.inputs {
		if v != 0 {
			out[r.d.labels[lid]] = int(v)
		}
	}
	return out
}

// Confidence is the fraction of constructed fingerprints that voted for
// the top application. It is not part of the paper's mechanism but is
// useful for monitoring dashboards.
func (r Result) Confidence() float64 {
	if r.Total == 0 || len(r.Apps) == 0 {
		return 0
	}
	c := float64(r.VotesFor(r.Apps[0])) / float64(r.Total)
	if c > 1 {
		// Weighted voting can push the top vote count past the
		// fingerprint count; full confidence is the ceiling.
		c = 1
	}
	return c
}

// Recognizer performs recognitions against one dictionary through a
// reused scratch state: the extraction buffer, the dense vote/input
// accumulators, and the tie slice. After warm-up, Recognize performs
// zero allocations per call (given an allocation-free WindowSource,
// e.g. a dataset execution or a stream).
//
// A Recognizer is not safe for concurrent use; create one per
// goroutine. The Result of each call borrows the recognizer's buffers
// and is valid only until the next call.
type Recognizer struct {
	d      *Dictionary
	raw    rawExec
	ks     keySet
	votes  []int32
	inputs []int32
	apps   []string
}

// NewRecognizer returns a reusable recognizer against the dictionary.
func (d *Dictionary) NewRecognizer() *Recognizer {
	return &Recognizer{d: d}
}

// extract runs the shared extraction walk into the recognizer's reused
// buffers and renders the canonical key bytes at the dictionary's
// depth.
//
//efd:hotpath
func (r *Recognizer) extract(src WindowSource) {
	extractRawInto(&r.raw, src, r.d.cfg.Metrics, r.d.cfg.Windows, r.d.cfg.Joint)
	r.d.keysFromRaw(&r.ks, r.raw)
}

// Recognize looks up every fingerprint of the execution and returns the
// most-matched application name(s). Each matched key contributes one
// vote to every application present in its label set; the application
// with the most votes wins. Ties are returned in learning order, so the
// caller can still "consider the first application name in the array"
// as the paper does.
//
//efd:hotpath
func (r *Recognizer) Recognize(src WindowSource) Result {
	r.extract(src)
	return r.vote(false)
}

// RecognizeWeighted is a variant of Recognize in which each matched key
// contributes its per-application observation count rather than a
// single vote, so frequently repeated fingerprints outweigh one-off
// noise keys. This is an extension beyond the paper (which votes
// uniformly); the voting ablation compares the two.
//
//efd:hotpath
func (r *Recognizer) RecognizeWeighted(src WindowSource) Result {
	r.extract(src)
	return r.vote(true)
}

// grow returns s resized to n elements, all zero, reusing capacity.
//
//efd:hotpath
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// vote tallies the extracted keys in r.ks against the dictionary using
// the dense accumulators. It contains no map allocation: bucket lookup
// is by integer-coordinate struct, key lookup passes the buffered bytes
// directly, and votes accumulate per interned app ID.
//
//efd:hotpath
func (r *Recognizer) vote(weighted bool) Result {
	d := r.d
	r.votes = grow(r.votes, len(d.apps))
	r.inputs = grow(r.inputs, len(d.labels))
	res := Result{Total: len(r.ks.refs), votes: r.votes, inputs: r.inputs, d: d}
	for _, ref := range r.ks.refs {
		b := d.buckets[ref.bk]
		if b == nil {
			continue
		}
		e := b[string(r.ks.buf[ref.off:ref.end])] // no-alloc []byte key lookup
		if e == nil || len(e.labels) == 0 {
			continue
		}
		res.Matched++
		// A key may store several inputs of one application (e.g.
		// ft_X, ft_Y, ft_Z); the application still gets a single vote
		// per matched key (or its maximum label count when weighted),
		// which is what the precomputed entry.votes encode.
		if weighted {
			for i, lid := range e.labels {
				r.inputs[lid] += e.counts[i]
			}
			for _, av := range e.votes {
				r.votes[av.app] += av.max
			}
		} else {
			for _, lid := range e.labels {
				r.inputs[lid]++
			}
			for _, av := range e.votes {
				r.votes[av.app]++
			}
		}
	}
	if res.Matched == 0 {
		return res
	}
	best := int32(0)
	for _, v := range r.votes {
		if v > best {
			best = v
		}
	}
	// App IDs are assigned in learning order, so ascending-ID
	// collection yields the paper's tie-break order directly.
	r.apps = r.apps[:0]
	for i, v := range r.votes {
		if v == best {
			r.apps = append(r.apps, d.apps[i])
		}
	}
	res.Apps = r.apps
	return res
}

// Recognize looks up every fingerprint of the execution and returns the
// most-matched application name(s); see Recognizer.Recognize. This
// convenience form allocates a fresh scratch per call so the Result is
// independently owned; batch callers should hold a Recognizer.
func (d *Dictionary) Recognize(src WindowSource) Result {
	r := Recognizer{d: d}
	return r.Recognize(src)
}

// RecognizeWeighted is the count-weighted voting variant of Recognize;
// see Recognizer.RecognizeWeighted.
func (d *Dictionary) RecognizeWeighted(src WindowSource) Result {
	r := Recognizer{d: d}
	return r.RecognizeWeighted(src)
}

// PredictUsage performs the paper's "dictionary in reverse" (§6):
// given an application name, it returns the stored fingerprints of that
// application grouped by metric and window — the resource usage one
// should expect from a future execution. Entries are sorted as in
// Entries().
func (d *Dictionary) PredictUsage(app string) []Entry {
	var out []Entry
	for _, e := range d.Entries() {
		for _, l := range e.Labels {
			if l.App == app {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// PredictUsageForLabel restricts PredictUsage to one (application,
// input) pair.
func (d *Dictionary) PredictUsageForLabel(label apps.Label) []Entry {
	var out []Entry
	for _, e := range d.Entries() {
		for _, l := range e.Labels {
			if l == label {
				out = append(out, e)
				break
			}
		}
	}
	return out
}
