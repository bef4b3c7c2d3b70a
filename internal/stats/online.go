package stats

// Online accumulates a streaming mean using Welford's update, allowing
// the streaming recognizer to maintain window means without buffering
// every sample. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.mean = x
		return
	}
	o.mean += (x - o.mean) / float64(o.n)
}

// Count reports the number of observations seen.
func (o *Online) Count() int { return o.n }

// Mean reports the running mean, or 0 before any observation.
func (o *Online) Mean() float64 { return o.mean }
