// Package client is the typed Go SDK for the EFD monitoring service's
// v1 HTTP API (internal/server over efd/monitor; see API.md for the
// wire protocol).
//
// A Client covers the full surface — job lifecycle, single- and
// multi-job ingest, recognition queries, online labelling, and the
// storage endpoints — with connection reuse (one shared
// http.Transport), context support on every call, and automatic
// retry-with-backoff on transient failures of idempotent (read-only)
// endpoints.
//
// # Ingest
//
// Ingest/IngestBatches speak the JSON wire form. IngestRuns speaks
// the binary columnar encoding (application/x-efd-runs): each
// RunBatch travels as one job-runs record of the shared EFD wire
// codec, with the job ID and metric names once per record. A
// one-sample run on a 1 Hz grid then costs 12 bytes — its 8 value
// bytes, a one-byte offset delta, and its metric index, node and
// count — plus its share of the record header, instead of a JSON
// object. Values round-trip bit-exactly. The record needs a server
// from the same release or later; older servers answer 400.
// WithBinaryIngest(BinaryNever) sends IngestRuns as JSON instead.
// IngestBatches validates its rows locally, so a non-finite or
// out-of-range sample fails the call before anything is sent.
//
// For high-rate feeders, a BatchWriter buffers samples per job and
// flushes them as multi-job batches by size and by interval, with a
// bounded number of in-flight requests.
//
// # Failover
//
// NewMulti (or WithEndpoints) wires one client to several servers: a
// background prober watches each endpoint's GET /v1/health, every
// request routes to the job's home endpoint (deterministic FNV-1a
// affinity, so one job's lifecycle stays on one server), and
// idempotent reads walk forward to the next serving endpoint when the
// home one is down, read-only, or has a tripped breaker. Writes stay
// pinned to the home endpoint unless WithWriteFailover opts in to
// at-least-once re-homing. Close a multi-endpoint client to stop the
// prober.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/efd/monitor"
	"repro/internal/wire"
)

// ContentTypeRuns is the media type of the binary columnar ingest
// encoding (defined with the codec in internal/wire).
const ContentTypeRuns = wire.ContentTypeRuns

// BinaryMode selects the wire encoding of IngestRuns.
type BinaryMode int

const (
	// BinaryAuto (the default) sends the binary encoding, exactly as
	// BinaryAlways does.
	BinaryAuto BinaryMode = iota
	// BinaryNever always sends JSON — the reference encoding binary
	// ingest is checked against.
	BinaryNever
	// BinaryAlways sends the binary encoding.
	BinaryAlways
)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying http.Client (timeouts,
// custom transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the retry policy for idempotent endpoints: up to max
// retries after the first attempt, sleeping base, 2*base, 4*base, …
// between attempts. WithRetry(0, 0) disables retries.
func WithRetry(max int, base time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.backoffBase = max, base }
}

// WithBinaryIngest selects the IngestRuns wire encoding.
func WithBinaryIngest(mode BinaryMode) Option { return func(c *Client) { c.binary = mode } }

// Metrics is an optional set of instrumentation callbacks, one per
// client-side resilience event. Nil fields are skipped; non-nil ones
// must be safe for concurrent use (an atomic counter's Add, or an
// obs.Counter method value, is the intended shape). Callbacks fire
// outside the client's locks.
type Metrics struct {
	// BreakerOpen fires when an endpoint's circuit breaker trips open
	// (consecutive failures reached the threshold). Re-arming the
	// cooldown on a failed half-open probe does not re-count.
	BreakerOpen func()
	// BreakerClose fires when a tripped breaker closes again (a
	// request succeeded).
	BreakerClose func()
	// Retry fires at the start of every retry pass — the request is
	// about to be re-sent after a backoff sleep.
	Retry func()
	// Failover fires when a request succeeds on an endpoint other
	// than the first one tried (the home endpoint was down, shedding,
	// or breaker-sidelined).
	Failover func()
	// Shed fires when a server sheds a request with 429 (the ingest
	// admission gate under overload).
	Shed func()
}

// WithMetrics installs instrumentation callbacks for breaker,
// retry, failover, and shed events. See Metrics.
func WithMetrics(m Metrics) Option { return func(c *Client) { c.met = m } }

// WithCircuitBreaker arms a circuit breaker — one per endpoint: after
// threshold consecutive failed requests (connection errors, 5xx, 429)
// against an endpoint the client fast-fails its calls with
// ErrCircuitOpen for the cooldown, then lets requests probe again — a
// success closes the circuit, another failure re-opens it. Off by
// default: a breaker in front of a monitoring service is a policy
// choice (a tripped breaker drops telemetry on the floor), so callers
// opt in. On a multi-endpoint client a tripped breaker only sidelines
// its own endpoint; failover routes around it.
func WithCircuitBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		if threshold > 0 && cooldown > 0 {
			c.brThreshold, c.brCooldown = threshold, cooldown
		}
	}
}

// Client is a typed client of one EFD monitoring deployment — a
// single server, or several with NewMulti. It is safe for concurrent
// use; all calls share one connection pool.
type Client struct {
	hc          *http.Client
	maxRetries  int
	backoffBase time.Duration
	binary      BinaryMode

	// brThreshold/brCooldown are the WithCircuitBreaker policy; the
	// per-endpoint breakers are built from them at construction.
	brThreshold int
	brCooldown  time.Duration

	met Metrics // WithMetrics instrumentation callbacks (zero = off)

	// eps are the endpoints, primary first; always at least one. The
	// slice is immutable after construction — routing copies it.
	eps           []*endpoint
	writeFailover bool          // WithWriteFailover
	probeEvery    time.Duration // health-probe cadence (multi only)

	proberStop chan struct{} // nil on single-endpoint clients
	proberWG   sync.WaitGroup
	closeOnce  sync.Once

	encPool sync.Pool // *encBuf, reused binary encode buffers
}

// encBuf is a pooled binary request body and the record encoder that
// fills it.
type encBuf struct {
	runs   wire.JobRuns
	frames []byte
}

// encode frames batches as a binary request body, one job-runs record
// per batch, into the reused buffer.
//
//efd:hotpath
func (enc *encBuf) encode(batches []monitor.RunBatch) []byte {
	enc.frames = enc.frames[:0]
	for _, b := range batches {
		for _, run := range b.Runs {
			enc.runs.Add(run.Metric, run.Node, run.Offsets, run.Values)
		}
		enc.frames = enc.runs.AppendFrame(enc.frames, b.JobID)
	}
	return enc.frames
}

// New returns a client for the server at baseURL (e.g.
// "http://cluster-mon:8080"). The default policy retries idempotent
// requests twice with 100 ms initial backoff.
func New(baseURL string, opts ...Option) *Client {
	return NewMulti([]string{baseURL}, opts...)
}

// ErrCircuitOpen is the fast-fail of a tripped circuit breaker (see
// WithCircuitBreaker): the request was not sent.
var ErrCircuitOpen = errors.New("efd: circuit breaker open")

// breaker is a consecutive-failure circuit breaker shared by all of a
// client's requests.
type breaker struct {
	threshold int
	cooldown  time.Duration

	// onOpen/onClose fire on open/closed transitions (outside the
	// lock); either may be nil.
	onOpen  func()
	onClose func()

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// allow reports whether a request may go out. Once the cooldown
// expires the breaker is half-open: requests flow again while fails
// stays at the threshold, so the first failed probe re-opens it and
// the first success closes it.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails < b.threshold || !time.Now().Before(b.openUntil)
}

func (b *breaker) record(ok bool) {
	b.mu.Lock()
	wasOpen := b.fails >= b.threshold
	if ok {
		b.fails = 0
	} else {
		b.fails++
		if b.fails >= b.threshold {
			b.openUntil = time.Now().Add(b.cooldown)
		}
	}
	nowOpen := b.fails >= b.threshold
	b.mu.Unlock()
	switch {
	case !wasOpen && nowOpen && b.onOpen != nil:
		b.onOpen()
	case wasOpen && !nowOpen && b.onClose != nil:
		b.onClose()
	}
}

// APIError is a non-2xx response, carrying the envelope's
// machine-readable code. A body without the envelope (a proxy's error
// page, say) yields Code "" with the raw body as the message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's Retry-After hint (integer seconds),
	// zero when absent. Sent with 429 when the ingest admission gate
	// sheds the request.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("efd: HTTP %d: %s", e.StatusCode, e.Message)
	}
	return fmt.Sprintf("efd: %s (HTTP %d): %s", e.Code, e.StatusCode, e.Message)
}

// decodeAPIError parses the v1 error envelope; any other body is kept
// as the raw message.
func decodeAPIError(status int, body []byte) *APIError {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	out := &APIError{StatusCode: status, Message: strings.TrimSpace(string(body))}
	if json.Unmarshal(body, &env) == nil && (env.Error.Code != "" || env.Error.Message != "") {
		out.Code, out.Message = env.Error.Code, env.Error.Message
	}
	return out
}

// retryable reports whether a response status is worth retrying on an
// idempotent endpoint: transient server-side failures only.
func retryable(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// transportErr marks a connection-level failure — the request may
// never have reached a server — so idempotent retry and failover
// apply. It unwraps to the underlying error before leaving the
// client, preserving the single-endpoint error surface.
type transportErr struct{ err error }

func (e *transportErr) Error() string { return e.err.Error() }
func (e *transportErr) Unwrap() error { return e.err }

// doRouted performs one request with retries and failover. body is
// re-sent from the byte slice on every attempt; idempotent requests
// retry on connection errors and 5xx, non-idempotent ones never retry
// (a duplicated POST /v1/samples would double-feed streams). On a
// multi-endpoint client each retry pass walks the affinity-ordered
// endpoints: idempotent requests fail over on transient errors, writes
// only when WithWriteFailover opted in. Non-retryable statuses (404,
// 400, 409, 413, 429 …) are authoritative answers and return at once —
// another endpoint would just repeat them, or worse, hide them.
func (c *Client) doRouted(ctx context.Context, method, path, contentType string, body []byte, out any, idempotent bool, affinity string) error {
	attempts := 1
	if idempotent {
		attempts += c.maxRetries
	}
	failover := idempotent || c.writeFailover
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if c.met.Retry != nil {
				c.met.Retry()
			}
			backoff := c.backoffBase << (attempt - 1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
		}
		order := c.routeOrder(affinity, !idempotent)
		transient := 0 // non-breaker transient failures this pass
		for i, ep := range order {
			if i > 0 && !failover {
				break
			}
			err := c.tryEndpoint(ctx, ep, method, path, contentType, body, out)
			if err == nil {
				if i > 0 && c.met.Failover != nil {
					c.met.Failover()
				}
				return nil
			}
			if errors.Is(err, ErrCircuitOpen) {
				continue // this endpoint is sidelined; the next may serve
			}
			var te *transportErr
			var apiErr *APIError
			switch {
			case errors.As(err, &te):
				transient++
				lastErr = te.err
			case errors.As(err, &apiErr) && retryable(apiErr.StatusCode):
				transient++
				lastErr = apiErr
			default:
				return err // authoritative answer or local failure
			}
		}
		if transient == 0 {
			// Every reachable endpoint's breaker is open: fast-fail
			// rather than sleeping through retry passes that cannot
			// send anything.
			return ErrCircuitOpen
		}
	}
	return lastErr
}

// tryEndpoint is one HTTP round-trip against one endpoint, through its
// circuit breaker.
func (c *Client) tryEndpoint(ctx context.Context, ep *endpoint, method, path, contentType string, body []byte, out any) error {
	if ep.br != nil && !ep.br.allow() {
		return ErrCircuitOpen
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		ep.record(false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportErr{err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		ep.record(false)
		return &transportErr{err}
	}
	// The breaker counts "is the service in trouble" signals — 5xx
	// and shed ingest — not caller mistakes like a 404 or 400.
	ep.record(resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil
		}
		return json.Unmarshal(raw, out)
	}
	if resp.StatusCode == http.StatusTooManyRequests && c.met.Shed != nil {
		c.met.Shed()
	}
	apiErr := decodeAPIError(resp.StatusCode, raw)
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
		apiErr.RetryAfter = time.Duration(s) * time.Second
	}
	return apiErr
}

func (c *Client) getJSON(ctx context.Context, path, affinity string, out any) error {
	return c.doRouted(ctx, http.MethodGet, path, "", nil, out, true, affinity)
}

func (c *Client) postJSON(ctx context.Context, path, affinity string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.doRouted(ctx, http.MethodPost, path, "application/json", body, out, false, affinity)
}

// --- the v1 surface ---------------------------------------------------

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.getJSON(ctx, "/healthz", "", nil)
}

// Dictionary fetches the dictionary statistics.
func (c *Client) Dictionary(ctx context.Context) (monitor.DictionaryInfo, error) {
	var out monitor.DictionaryInfo
	err := c.getJSON(ctx, "/v1/dictionary", "", &out)
	return out, err
}

// Metrics fetches the service counters.
func (c *Client) Metrics(ctx context.Context) (monitor.Stats, error) {
	var out monitor.Stats
	err := c.getJSON(ctx, "/v1/metrics", "", &out)
	return out, err
}

// Register starts tracking a job on the given number of nodes.
func (c *Client) Register(ctx context.Context, jobID string, nodes int) error {
	in := struct {
		JobID string `json:"job_id"`
		Nodes int    `json:"nodes"`
	}{jobID, nodes}
	return c.postJSON(ctx, "/v1/jobs", jobID, in, nil)
}

// Jobs lists live jobs, ID-sorted, paginated.
func (c *Client) Jobs(ctx context.Context, offset, limit int) (monitor.Listing, error) {
	var out monitor.Listing
	err := c.getJSON(ctx, "/v1/jobs?offset="+strconv.Itoa(offset)+"&limit="+strconv.Itoa(limit), "", &out)
	return out, err
}

// Result fetches a job's current recognition state.
func (c *Client) Result(ctx context.Context, jobID string) (monitor.State, error) {
	var out monitor.State
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(jobID), jobID, &out)
	return out, err
}

// IngestResult is the outcome of a multi-job ingest: the number of
// samples fed and the jobs the server did not know (their samples
// were skipped, the rest were fed).
type IngestResult struct {
	Accepted int      `json:"accepted"`
	Unknown  []string `json:"unknown"`
}

// Ingest feeds one job's samples (the single-job wire form).
func (c *Client) Ingest(ctx context.Context, jobID string, samples []monitor.Sample) (int, error) {
	var out IngestResult
	err := c.postJSON(ctx, "/v1/samples", jobID, monitor.Batch{JobID: jobID, Samples: samples}, &out)
	return out.Accepted, err
}

// IngestBatches feeds samples for several jobs in one JSON request
// (one shard lock and one durable fsync server-side). The samples are
// validated first: an invalid one fails the call with an error
// wrapping monitor.ErrInvalid, and nothing is sent. A request the
// server rejects as too large (413) is bisected like IngestRuns'.
func (c *Client) IngestBatches(ctx context.Context, batches []monitor.Batch) (IngestResult, error) {
	runs, err := regroup(batches)
	if err != nil {
		return IngestResult{}, err
	}
	return c.ingestRuns(ctx, runs, false)
}

// IngestRuns feeds columnar runs — the cheapest ingest form, sent in
// the binary encoding unless WithBinaryIngest(BinaryNever) selected
// JSON. A request the server rejects as too large (413) is bisected
// and re-sent as smaller requests, in order, transparently — across
// batches, then runs, then within a run's columns — and the result
// reports the combined outcome. Only a single sample too large on its
// own surfaces the 413.
func (c *Client) IngestRuns(ctx context.Context, batches []monitor.RunBatch) (IngestResult, error) {
	return c.ingestRuns(ctx, batches, c.binary != BinaryNever)
}

// ingestRuns is the one ingest path of both batch forms: one request,
// bisected on 413.
func (c *Client) ingestRuns(ctx context.Context, batches []monitor.RunBatch, binary bool) (IngestResult, error) {
	out, err := c.postRuns(ctx, batches, binary)
	if !entityTooLarge(err) {
		return out, err
	}
	left, right, ok := splitRunBatches(batches)
	if !ok {
		return out, err
	}
	// The halves go in order, preserving per-series sample order
	// server-side; a failed left half stops before the right, so the
	// caller can reason about how far the ingest got.
	lout, err := c.ingestHalf(ctx, left, binary)
	if err != nil {
		return lout, err
	}
	rout, err := c.ingestHalf(ctx, right, binary)
	return mergeIngestResults(lout, rout), err
}

// ingestHalf sends one half of a bisected payload. A half made up
// entirely of unknown jobs draws the all-unknown 404 even though the
// whole payload would not have; its job IDs are folded back into
// Unknown so the caller sees the whole-payload contract. (The corner
// where EVERY job is unknown then reports via Unknown rather than the
// 404 — the information is the same.)
func (c *Client) ingestHalf(ctx context.Context, batches []monitor.RunBatch, binary bool) (IngestResult, error) {
	out, err := c.ingestRuns(ctx, batches, binary)
	if allUnknown(err) {
		ids := make([]string, len(batches))
		for i, b := range batches {
			ids[i] = b.JobID
		}
		return IngestResult{Unknown: ids}, nil
	}
	return out, err
}

// entityTooLarge reports a 413: the request body exceeded the
// server's limit and a smaller request may well succeed.
func entityTooLarge(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusRequestEntityTooLarge
}

// allUnknown reports the ingest 404: every job in the request was
// unknown. Nothing else on /v1/samples answers 404.
func allUnknown(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound
}

// mergeIngestResults combines two half-payload outcomes: accepted
// counts add, unknown-job lists union (sorted, deduplicated — both
// halves usually name the same unknown job).
func mergeIngestResults(a, b IngestResult) IngestResult {
	out := IngestResult{Accepted: a.Accepted + b.Accepted}
	seen := make(map[string]bool)
	for _, id := range append(append([]string(nil), a.Unknown...), b.Unknown...) {
		if !seen[id] {
			seen[id] = true
			out.Unknown = append(out.Unknown, id)
		}
	}
	sort.Strings(out.Unknown)
	return out
}

// splitRunBatches bisects a columnar payload: across batches, then
// across one batch's runs, then across a lone run's sample columns.
func splitRunBatches(batches []monitor.RunBatch) (left, right []monitor.RunBatch, ok bool) {
	if len(batches) > 1 {
		mid := len(batches) / 2
		return batches[:mid], batches[mid:], true
	}
	if len(batches) != 1 {
		return nil, nil, false
	}
	b := batches[0]
	if len(b.Runs) > 1 {
		mid := len(b.Runs) / 2
		return []monitor.RunBatch{{JobID: b.JobID, Runs: b.Runs[:mid]}},
			[]monitor.RunBatch{{JobID: b.JobID, Runs: b.Runs[mid:]}}, true
	}
	if len(b.Runs) == 1 && len(b.Runs[0].Values) > 1 {
		run := b.Runs[0]
		mid := len(run.Values) / 2
		lr := monitor.Run{Metric: run.Metric, Node: run.Node, Offsets: run.Offsets[:mid], Values: run.Values[:mid]}
		rr := monitor.Run{Metric: run.Metric, Node: run.Node, Offsets: run.Offsets[mid:], Values: run.Values[mid:]}
		return []monitor.RunBatch{{JobID: b.JobID, Runs: []monitor.Run{lr}}},
			[]monitor.RunBatch{{JobID: b.JobID, Runs: []monitor.Run{rr}}}, true
	}
	return nil, nil, false
}

// postRuns is one multi-job ingest request, unsplit: the batches
// encoded with the shared wire codec into a pooled buffer, one
// job-runs record per batch, and posted as application/x-efd-runs, or
// as JSON rows. Multi-job requests route by the first job's affinity:
// a feeder's batches usually share a home endpoint anyway, and a
// deterministic pick keeps the whole request on one server.
func (c *Client) postRuns(ctx context.Context, batches []monitor.RunBatch, binary bool) (IngestResult, error) {
	affinity := ""
	if len(batches) > 0 {
		affinity = batches[0].JobID
	}
	var out IngestResult
	if !binary {
		in := struct {
			Batches []monitor.Batch `json:"batches"`
		}{runsToBatches(batches)}
		err := c.postJSON(ctx, "/v1/samples", affinity, in, &out)
		return out, err
	}
	enc := c.encPool.Get().(*encBuf)
	err := c.doRouted(ctx, http.MethodPost, "/v1/samples", ContentTypeRuns, enc.encode(batches), &out, false, affinity)
	c.encPool.Put(enc)
	return out, err
}

// runsToBatches converts columnar runs to the JSON sample form.
// Offsets convert to float seconds; the server rounds them back to
// the nearest nanosecond, which restores every offset below 2^21 s
// (about 24 days) exactly.
func runsToBatches(batches []monitor.RunBatch) []monitor.Batch {
	out := make([]monitor.Batch, len(batches))
	for i, b := range batches {
		jb := monitor.Batch{JobID: b.JobID}
		for _, run := range b.Runs {
			for k := range run.Values {
				jb.Samples = append(jb.Samples, monitor.Sample{
					Metric:  run.Metric,
					Node:    run.Node,
					OffsetS: run.Offsets[k].Seconds(),
					Value:   run.Values[k],
				})
			}
		}
		out[i] = jb
	}
	return out
}

// Label learns a finished job into the dictionary under the
// (application, input) label and retires it. Returns the canonical
// label string.
func (c *Client) Label(ctx context.Context, jobID, app, input string) (string, error) {
	in := struct {
		App   string `json:"app"`
		Input string `json:"input"`
	}{app, input}
	var out struct {
		Learned string `json:"learned"`
	}
	err := c.postJSON(ctx, "/v1/jobs/"+url.PathEscape(jobID)+"/label", jobID, in, &out)
	return out.Learned, err
}

// Delete forgets a job's stream without learning it.
func (c *Client) Delete(ctx context.Context, jobID string) error {
	return c.doRouted(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(jobID), "", nil, nil, false, jobID)
}

// Series dumps a job's telemetry from the server's durable store.
func (c *Client) Series(ctx context.Context, jobID string) (monitor.SeriesDump, error) {
	var out monitor.SeriesDump
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(jobID)+"/series", jobID, &out)
	return out, err
}

// Executions lists the server's stored (finished) executions.
func (c *Client) Executions(ctx context.Context) ([]monitor.ExecutionInfo, error) {
	var out struct {
		Executions []monitor.ExecutionInfo `json:"executions"`
	}
	err := c.getJSON(ctx, "/v1/executions", "", &out)
	return out.Executions, err
}

// RecognizeExecution re-recognizes a stored execution with the
// dictionary as it stands now. Executions live in their home
// endpoint's store, so the ID routes like a job ID.
func (c *Client) RecognizeExecution(ctx context.Context, id string) (monitor.State, error) {
	var out monitor.State
	err := c.doRouted(ctx, http.MethodPost, "/v1/executions/"+url.PathEscape(id)+"/recognize", "", nil, &out, false, id)
	return out, err
}
