package core

import (
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Stream recognizes an execution online, as its telemetry arrives. It
// accumulates one stats.WindowSum per (metric, node, window), the sum
// Series.WindowMean scans, with no sample buffering, and can answer as
// soon as the latest-ending configured window has closed — two minutes
// into the execution for the paper's configuration. This is the
// low-latency deployment mode that motivates the EFD over
// whole-execution ML pipelines.
//
// Accumulators are keyed by the Window value itself (not its string
// form), so Feed performs no formatting and, once every configured
// (metric, node, window) accumulator exists, no allocation per sample.
//
// A Stream is not safe for concurrent use; the HTTP server serializes
// access per job.
type Stream struct {
	dict  *Dictionary
	nodes int
	acc   map[streamKey]*stats.WindowSum
	// rec is the stream's reused recognizer, so repeated polling of
	// Recognize allocates nothing once warmed.
	rec *Recognizer
	// horizon is the largest window end; recognition is final once
	// telemetry at or beyond this offset has been fed.
	horizon time.Duration
	seen    time.Duration
}

type streamKey struct {
	metric string
	node   int
	window telemetry.Window
}

// NewStream returns a streaming recognizer against the dictionary for
// an execution on the given number of nodes.
func NewStream(d *Dictionary, nodes int) *Stream {
	s := &Stream{
		dict:  d,
		nodes: nodes,
		acc:   make(map[streamKey]*stats.WindowSum),
		rec:   d.NewRecognizer(),
	}
	for _, w := range d.cfg.Windows {
		if w.End > s.horizon {
			s.horizon = w.End
		}
	}
	return s
}

// Feed delivers one sample. Samples outside every configured window,
// for unconfigured metrics, or for out-of-range nodes are ignored, so
// the monitor can blindly forward its full stream.
//
//efd:hotpath
func (s *Stream) Feed(metric string, node int, offset time.Duration, value float64) { //efdvet:ignore deadcode FeedRun's reference in stream_run_test and server concurrency_test
	if offset > s.seen {
		s.seen = offset
	}
	if node < 0 || node >= s.nodes {
		return
	}
	configured := false
	for _, m := range s.dict.cfg.Metrics {
		if m == metric {
			configured = true
			break
		}
	}
	if !configured {
		return
	}
	for _, w := range s.dict.cfg.Windows {
		if !w.Contains(offset) {
			continue
		}
		k := streamKey{metric: metric, node: node, window: w}
		acc, ok := s.acc[k]
		if !ok {
			acc = &stats.WindowSum{}
			s.acc[k] = acc
		}
		acc.Add(value)
	}
}

// FeedRun delivers a run of samples sharing one (metric, node) pair as
// parallel offset/value columns — the bulk form of Feed that the
// server's batch ingest uses. The configured-metric check runs once
// for the whole run and each window's accumulator is resolved at most
// once, instead of per sample; the per-accumulator update sequence is
// identical to feeding the samples one by one, so the resulting state
// is exactly the same. Offsets and values must have equal length.
//
//efd:hotpath
func (s *Stream) FeedRun(metric string, node int, offsets []time.Duration, values []float64) {
	for _, off := range offsets {
		if off > s.seen {
			s.seen = off
		}
	}
	if node < 0 || node >= s.nodes {
		return
	}
	configured := false
	for _, m := range s.dict.cfg.Metrics {
		if m == metric {
			configured = true
			break
		}
	}
	if !configured {
		return
	}
	for _, w := range s.dict.cfg.Windows {
		var acc *stats.WindowSum
		for i, off := range offsets {
			if !w.Contains(off) {
				continue
			}
			if acc == nil {
				k := streamKey{metric: metric, node: node, window: w}
				acc = s.acc[k]
				if acc == nil {
					acc = &stats.WindowSum{}
					s.acc[k] = acc
				}
			}
			acc.Add(values[i])
		}
	}
}

// Complete reports whether every configured window has closed, i.e.
// telemetry at or beyond the latest window end has been observed.
func (s *Stream) Complete() bool { return s.seen >= s.horizon }

// WindowMean implements WindowSource over the accumulated stream. A
// window whose sum is not finite has no mean, as in Series.WindowMean.
func (s *Stream) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	acc, ok := s.acc[streamKey{metric: metric, node: node, window: w}]
	if !ok {
		return 0, false
	}
	return acc.Mean()
}

// NodeCount implements WindowSource.
func (s *Stream) NodeCount() int { return s.nodes }

// Recognize answers with the current accumulated state. Calling it
// before Complete() returns a provisional answer based on partial
// windows. Once Complete(), every configured window has closed, and a
// stream fed each window's samples in time order answers exactly as
// offline recognition of the same telemetry does: its window means
// carry the bits Series.WindowMean returns. Integer telemetry whose
// absolute window sums stay below 2^53 (such as LDMS counters) gets
// that answer in any arrival order. The Result borrows the stream's
// reused recognizer scratch and is valid until the next Recognize call
// on this stream.
func (s *Stream) Recognize() Result {
	return s.rec.Recognize(s)
}
