// Binary columnar ingest: POST /v1/samples with
// Content-Type: application/x-efd-runs.
//
// The body is a sequence of CRC-framed records in the shared EFD wire
// encoding (internal/wire — the exact framing the tsdb WAL stores).
// Clients send one job-runs record per job:
//
//	[4B length][4B CRC-32C][type=5, job, unit, metric table,
//	 per run: metric index, node, count, zigzag-varint offset deltas,
//	 raw float64 value bits]
//
// TypeRun records (type=2, one per (job, metric, node) run), which
// clients sent before job-runs records, are accepted too, alone or
// mixed with job-runs records in one body.
//
// Compared with the JSON path this skips per-sample decoding
// entirely: each record lands as columns that feed Engine.IngestRuns
// (and, in storage mode, the WAL) directly. The decoder's buffers are
// pooled, so a warmed server allocates per job-runs record only the
// job ID string, plus a metric string for each table entry that
// differs from the previous record's table. Decoding is bit-exact —
// float64 values round-trip by bits, never through text — so the
// resulting stream state is bit-identical to the same samples sent as
// JSON.
package server

import (
	"errors"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/efd/monitor"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ContentTypeRuns is the media type of the binary columnar ingest
// encoding (defined with the codec in internal/wire).
const ContentTypeRuns = wire.ContentTypeRuns

// isRunsContentType matches the binary ingest media type, tolerating
// parameters (e.g. a charset some client framework insists on).
func isRunsContentType(ct string) bool {
	if ct == "" {
		return false
	}
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		return mt == ContentTypeRuns
	}
	return strings.ToLower(strings.TrimSpace(ct)) == ContentTypeRuns
}

// binDecoder is the pooled per-request decode state: the body buffer,
// the wire arena every record of the request decodes into, and the
// run/batch assembly slices. A steady workload decodes with zero
// arena growth.
type binDecoder struct {
	body    []byte
	arena   wire.Arena
	runs    []monitor.Run
	batches []monitor.RunBatch
	// ends[i] is the end of batch i's runs in runs.
	ends []int
}

var binPool = sync.Pool{New: func() any { return new(binDecoder) }}

// readBody reads the (already MaxBytesReader-bounded) body into the
// pooled buffer.
func (d *binDecoder) readBody(r io.Reader) error {
	d.body = d.body[:0]
	for {
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := r.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode walks the body's frames into run batches: one batch per
// record, except that consecutive records of one job (a TypeRun body
// sends one per run) join into a single batch.
func (d *binDecoder) decode() error {
	d.arena.Reset()
	d.batches, d.ends = d.batches[:0], d.ends[:0]
	_, _, err := wire.WalkFrames(d.body, func(payload []byte) error {
		job, runs, err := d.arena.Decode(payload)
		if err != nil {
			return err
		}
		if k := len(d.batches); k > 0 && d.batches[k-1].JobID == job {
			d.ends[k-1] += len(runs)
		} else {
			d.batches = append(d.batches, monitor.RunBatch{JobID: job})
			d.ends = append(d.ends, len(d.arena.Runs))
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.runs = d.runs[:0]
	for _, r := range d.arena.Runs {
		d.runs = append(d.runs, monitor.Run(r))
	}
	start := 0
	for i, end := range d.ends {
		d.batches[i].Runs = d.runs[start:end:end]
		start = end
	}
	return nil
}

// release returns the decoder to the pool, dropping the per-request
// batches (they alias the arena) but keeping the buffers.
func (d *binDecoder) release() {
	clear(d.batches)
	clear(d.runs)
	d.batches, d.runs = d.batches[:0], d.runs[:0]
	binPool.Put(d)
}

// handleSamplesBinary is the application/x-efd-runs branch of
// POST /v1/samples. Semantics mirror the JSON multi-job form: all
// records validate before anything feeds, unknown jobs are reported
// alongside the accepted count, and one store commit acknowledges the
// request.
func (s *Server) handleSamplesBinary(w http.ResponseWriter, r *http.Request) {
	span := obs.SpanFrom(r.Context())
	var t0 time.Time
	if span != nil {
		t0 = time.Now()
	}
	d := binPool.Get().(*binDecoder)
	defer d.release()
	if err := d.readBody(r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, codeBadRequest, "read body: %v", err)
		return
	}
	if len(d.body) == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "empty ingest request")
		return
	}
	if err := d.decode(); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad run encoding: %v", err)
		return
	}
	if span != nil {
		span.RecordStage("decode", time.Since(t0))
		t0 = time.Now()
	}
	single := len(d.batches) == 1
	accepted, unknown, err := s.IngestRuns(d.batches)
	if span != nil {
		span.RecordStage("engine", time.Since(t0))
	}
	s.writeIngestOutcome(w, single, accepted, unknown, err)
}
