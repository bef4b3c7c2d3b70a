package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/efd/monitor"
)

// ErrWriterClosed is returned by Add and Flush after Close.
var ErrWriterClosed = errors.New("efd: batch writer closed")

// BatchWriterConfig tunes a BatchWriter. The zero value gets the
// documented defaults.
type BatchWriterConfig struct {
	// FlushSamples flushes the buffer the moment it holds this many
	// samples (across all jobs). Default 1024.
	FlushSamples int
	// FlushInterval flushes a non-empty buffer at least this often,
	// bounding the staleness of server-side state under a trickle of
	// samples. Default 1 s; negative disables the timer.
	FlushInterval time.Duration
	// MaxInFlight bounds the number of concurrent flush requests;
	// Add blocks (backpressure) rather than buffer further once the
	// bound is hit and the buffer is full again. Default 1 — which
	// also guarantees batches arrive at the server in flush order.
	MaxInFlight int
	// Columnar sends each flush with IngestRuns — the binary encoding
	// unless the client was built with WithBinaryIngest(BinaryNever) —
	// instead of IngestBatches' JSON. Either way the buffered samples
	// are validated and regrouped into contiguous (metric, node) runs,
	// keeping their arrival order within each run, exactly like the
	// server's own JSON regrouping.
	Columnar bool
	// OverloadRetries bounds the re-sends of a buffer the server shed
	// with 429 (or answered 503): up to this many retries after the
	// first attempt, honouring the server's Retry-After hint when given
	// and an exponential jittered backoff otherwise. Default 3;
	// negative disables overload retries.
	OverloadRetries int
	// OverloadBackoff is the base of the overload backoff schedule:
	// attempt n sleeps about base<<n, jittered ±25% so a fleet of
	// feeders shed together does not retry together. Default 500 ms.
	OverloadBackoff time.Duration
	// OnError, when set, receives asynchronous flush errors (timer-
	// and size-triggered flushes). Regardless, the first error is
	// retained and returned by the next Flush or Close.
	OnError func(error)
	// Context, when set, cancels in-flight requests on expiry. The
	// writer itself must still be Closed.
	Context context.Context
}

// BatchWriter buffers samples per job and flushes them as multi-job
// batches — by size, by interval, and on demand — with a bounded
// number of in-flight requests. All methods are safe for concurrent
// use. Always Close it: buffered samples are lost otherwise.
type BatchWriter struct {
	c   *Client
	cfg BatchWriterConfig

	// closeMu spans whole operations: Add and Flush hold it shared
	// for their full duration (including a dispatch blocked on the
	// semaphore), Close holds it exclusively while retiring the
	// writer — so once Close proceeds, no Add can still be on its way
	// to dispatching a buffer that Close's barrier would miss.
	closeMu sync.RWMutex

	mu      sync.Mutex
	byJob   map[string]int // job ID -> index into batches
	batches []monitor.Batch
	total   int
	err     error // first flush error, surfaced by Flush/Close
	closed  bool

	sem chan struct{} // in-flight bound; a send holds a slot for its duration
	// barrierMu serializes barrier(): two concurrent barriers would
	// each hoard part of the semaphore and deadlock waiting for the
	// other's slots.
	barrierMu sync.Mutex
	tickWG    sync.WaitGroup
	stop      chan struct{}
}

// NewBatchWriter returns a writer flushing through the client.
func (c *Client) NewBatchWriter(cfg BatchWriterConfig) *BatchWriter {
	if cfg.FlushSamples <= 0 {
		cfg.FlushSamples = 1024
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	w := &BatchWriter{
		c:     c,
		cfg:   cfg,
		byJob: make(map[string]int),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		stop:  make(chan struct{}),
	}
	if cfg.FlushInterval > 0 {
		w.tickWG.Add(1)
		go w.tick()
	}
	return w
}

// barrier waits for every in-flight send by acquiring (then
// releasing) all semaphore slots — a send holds its slot until it has
// recorded its outcome, so past the barrier every prior dispatch is
// fully settled. Concurrent barriers serialize on barrierMu: left to
// race, each would hoard part of the semaphore and deadlock waiting
// for the other's share.
func (w *BatchWriter) barrier() {
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	for i := 0; i < cap(w.sem); i++ {
		w.sem <- struct{}{}
	}
	for i := 0; i < cap(w.sem); i++ {
		<-w.sem
	}
}

// Add buffers one sample. When the buffer reaches FlushSamples the
// whole buffer is dispatched as one request; Add blocks only when
// MaxInFlight requests are already on the wire (backpressure).
func (w *BatchWriter) Add(jobID string, s monitor.Sample) error {
	w.closeMu.RLock()
	defer w.closeMu.RUnlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	i, ok := w.byJob[jobID]
	if !ok {
		i = len(w.batches)
		w.byJob[jobID] = i
		w.batches = append(w.batches, monitor.Batch{JobID: jobID})
	}
	w.batches[i].Samples = append(w.batches[i].Samples, s)
	w.total++
	if w.total < w.cfg.FlushSamples {
		w.mu.Unlock()
		return nil
	}
	batches := w.take()
	w.mu.Unlock()
	w.dispatch(batches)
	return nil
}

// take swaps the buffer out. Caller holds w.mu.
func (w *BatchWriter) take() []monitor.Batch {
	batches := w.batches
	w.batches = nil
	w.byJob = make(map[string]int)
	w.total = 0
	return batches
}

// dispatch sends one buffer asynchronously, bounded by MaxInFlight.
func (w *BatchWriter) dispatch(batches []monitor.Batch) {
	if len(batches) == 0 {
		return
	}
	w.sem <- struct{}{} // backpressure: bounded in-flight requests
	go func() {
		defer func() { <-w.sem }()
		if err := w.send(batches); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
			if w.cfg.OnError != nil {
				w.cfg.OnError(err)
			}
		}
	}()
}

// send posts one buffer, columnar or JSON, retrying when the server
// sheds it as overloaded.
func (w *BatchWriter) send(batches []monitor.Batch) error {
	return w.sendRetry(w.cfg.Context, batches)
}

// sendRetry posts one buffer — validated and regrouped into runs, sent
// binary when Columnar asks for it, JSON otherwise — re-sending on
// overload (429/503) up to OverloadRetries times. Re-sending a shed
// batch cannot double-feed: the server rejected it before decoding
// anything.
func (w *BatchWriter) sendRetry(ctx context.Context, batches []monitor.Batch) error {
	runs, err := regroup(batches)
	if err != nil {
		return err
	}
	binary := w.cfg.Columnar && w.c.binary != BinaryNever
	retries := w.cfg.OverloadRetries
	if retries == 0 {
		retries = 3
	}
	base := w.cfg.OverloadBackoff
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		_, err := w.c.ingestRuns(ctx, runs, binary)
		if err == nil || attempt >= retries || !overloaded(err) {
			return err
		}
		select {
		case <-time.After(overloadDelay(err, base, attempt)):
		case <-ctx.Done():
			return err
		}
	}
}

// overloaded reports a shed request: the engine's admission gate (429)
// or a proxy in front of it (503). Both promise a later retry can
// succeed.
func overloaded(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.StatusCode == http.StatusTooManyRequests ||
		apiErr.StatusCode == http.StatusServiceUnavailable
}

// overloadDelay picks the sleep before re-sending a shed buffer: the
// server's Retry-After when it gave one, the exponential schedule
// otherwise — jittered ±25% either way, so feeders shed in the same
// instant spread their retries out.
func overloadDelay(err error, base time.Duration, attempt int) time.Duration {
	d := base << attempt
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		d = apiErr.RetryAfter
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// regroup converts row-form samples into columnar runs, splitting at
// every (metric, node) change — the same contiguous-run rule the
// server's JSON path applies, so the resulting stream state is
// identical. Offsets round to the nanosecond grid exactly as the
// server rounds JSON offsets, which is only defined for the finite,
// in-range offsets monitor.ValidateSamples admits: an invalid sample
// fails the whole conversion with its error.
func regroup(batches []monitor.Batch) ([]monitor.RunBatch, error) {
	out := make([]monitor.RunBatch, len(batches))
	for bi, b := range batches {
		if err := monitor.ValidateSamples(b.JobID, b.Samples); err != nil {
			return nil, err
		}
		rb := monitor.RunBatch{JobID: b.JobID}
		samples := b.Samples
		for i := 0; i < len(samples); {
			metric, node := samples[i].Metric, samples[i].Node
			run := monitor.Run{Metric: metric, Node: node}
			for ; i < len(samples) && samples[i].Metric == metric && samples[i].Node == node; i++ {
				run.Offsets = append(run.Offsets, time.Duration(math.Round(samples[i].OffsetS*float64(time.Second))))
				run.Values = append(run.Values, samples[i].Value)
			}
			rb.Runs = append(rb.Runs, run)
		}
		out[bi] = rb
	}
	return out, nil
}

// tick is the interval flusher.
func (w *BatchWriter) tick() {
	defer w.tickWG.Done()
	t := time.NewTicker(w.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			batches := w.take()
			w.mu.Unlock()
			w.dispatch(batches)
		}
	}
}

// Flush synchronously sends everything buffered so far, waits for
// every in-flight asynchronous send, and returns the first error
// since the last Flush (including asynchronous ones).
func (w *BatchWriter) Flush(ctx context.Context) error {
	w.closeMu.RLock()
	defer w.closeMu.RUnlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	batches := w.take()
	w.mu.Unlock()
	var sendErr error
	if len(batches) > 0 {
		w.sem <- struct{}{}
		func() {
			defer func() { <-w.sem }()
			sendErr = w.sendRetry(ctx, batches)
		}()
	}
	w.barrier()
	w.mu.Lock()
	err := w.err
	w.err = nil
	w.mu.Unlock()
	if err == nil {
		err = sendErr
	}
	return err
}

// Close stops the interval flusher, sends the remaining buffer, waits
// for every in-flight request, and returns the first unreported
// error. The writer is unusable afterwards.
func (w *BatchWriter) Close() error {
	// Exclusive closeMu: every in-progress Add/Flush — including one
	// blocked in dispatch waiting for a semaphore slot — finishes
	// before the writer retires, so the barrier below really does see
	// every dispatched buffer.
	w.closeMu.Lock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.closeMu.Unlock()
		return ErrWriterClosed
	}
	w.closed = true
	batches := w.take()
	w.mu.Unlock()
	w.closeMu.Unlock()
	close(w.stop)
	w.tickWG.Wait()
	w.dispatch(batches)
	w.barrier()
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	return err
}
