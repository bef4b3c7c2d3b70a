// Package server is the HTTP adapter over the public monitoring
// engine (efd/monitor): it exposes a trained Execution Fingerprint
// Dictionary as the v1 monitoring service — the deployment shape the
// paper's MODA context implies: an LDMS aggregator forwards per-node
// samples of running jobs, operators query recognition results two
// minutes into each job, and completed jobs can be labelled back into
// the dictionary ("learning new applications is as simple as adding
// new keys", §6).
//
// All business logic — the sharded job table, the shared-dictionary
// concurrency contract, ingest, lifecycle, durable storage — lives in
// efd/monitor. This package only decodes requests, delegates to the
// engine, maps engine errors onto status codes, and encodes
// responses. API.md documents the full wire protocol.
//
// # Endpoints
//
//	GET    /healthz              liveness (answers every method)
//	GET    /v1/health            engine health, gate and disk counters
//	GET    /v1/dictionary        dictionary statistics
//	GET    /v1/metrics           service counters + shard occupancy
//	POST   /v1/jobs              register a job {job_id, nodes}
//	GET    /v1/jobs              paginated job listing (?offset=&limit=)
//	POST   /v1/samples           feed samples; JSON single-job or
//	                             multi-job form, or the binary columnar
//	                             encoding (application/x-efd-runs)
//	GET    /v1/jobs/{id}         recognition state of a job
//	POST   /v1/jobs/{id}/label   learn a finished job {app, input}
//	DELETE /v1/jobs/{id}         forget a job's stream
//	GET    /metrics              Prometheus exposition (EnableObs only)
//	GET    /v1/debug/slow        slowest recent requests (EnableObs only)
//
// With a durable store attached (engine.OpenStore; cmd/efdd
// -data-dir), three further routes open up (501 without a store):
//
//	GET    /v1/jobs/{id}/series          stored telemetry of a job
//	GET    /v1/executions                stored (finished) executions
//	POST   /v1/executions/{id}/recognize re-recognize a stored execution
//	                                     with the current dictionary
//
// Errors use a uniform JSON envelope:
//
//	{"error": {"code": "not_found", "message": "unknown job \"x\""}}
//
// and method rejections answer 405 with an Allow header. Request
// bodies are bounded by Server.MaxBodyBytes (413 beyond it).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/efd/monitor"
	"repro/internal/obs"
)

// DefaultMaxBodyBytes is the default request body limit: generous for
// batch ingest (a multi-thousand-sample JSON batch is well under a
// megabyte) while keeping a single oversized body from ballooning
// server memory.
const DefaultMaxBodyBytes = 8 << 20

// Server adapts a monitoring engine onto HTTP. The embedded Engine is
// the public API surface (register, ingest, query, storage); Server
// adds only wire concerns. It is safe for concurrent use.
type Server struct {
	*monitor.Engine

	// MaxBodyBytes caps every request body (http.MaxBytesReader);
	// larger bodies answer 413. Default DefaultMaxBodyBytes; set
	// before serving requests.
	MaxBodyBytes int64

	// obs is the HTTP observability plane, nil until EnableObs. A
	// plain Handler (no EnableObs) serves byte-identical responses to
	// an uninstrumented build.
	obs *serverObs
}

// NewEngine returns the HTTP service over an engine, which the caller
// built (and possibly pre-loaded) itself, e.g. with monitor.New. The
// server takes over the engine: all further access goes through the
// server (or SaveDictionary).
func NewEngine(e *monitor.Engine) *Server {
	return &Server{Engine: e, MaxBodyBytes: DefaultMaxBodyBytes}
}

// Handler returns the HTTP handler of the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	recognizeGuard := func(w http.ResponseWriter, r *http.Request) bool {
		return s.storeGuard(w, r) && idGuard(w, r)
	}
	for _, rt := range []route{
		{path: "/v1/health", get: s.handleHealthV1},
		{path: "/v1/dictionary", get: s.handleDictionary},
		{path: "/v1/metrics", get: s.handleMetrics},
		{path: "/v1/jobs", get: s.handleJobList, post: s.handleRegister},
		{path: "/v1/samples", post: s.handleSamples},
		{path: "/v1/jobs/{id}", guard: idGuard, get: s.handleResult, del: s.handleDelete},
		{path: "/v1/jobs/{id}/label", guard: idGuard, post: s.handleLabel},
		{path: "/v1/jobs/{id}/series", guard: idGuard, get: s.handleJobSeries},
		{path: "/v1/executions", guard: s.storeGuard, get: s.handleExecutions},
		{path: "/v1/executions/{$}", guard: s.storeGuard, get: s.handleExecutions},
		{path: "/v1/executions/{id}/recognize", guard: recognizeGuard, post: s.handleRecognize},
	} {
		rt.register(mux, s.instrument)
	}
	// The bare liveness probe answers every method; the rest of the two
	// ID subtrees answers the enveloped 404.
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("/v1/jobs/{$}", s.instrument("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, codeNotFound, "missing job id")
	}))
	mux.HandleFunc("/v1/jobs/", s.instrument("/v1/jobs/", noRoute))
	mux.HandleFunc("/v1/executions/", s.instrument("/v1/executions/", func(w http.ResponseWriter, r *http.Request) {
		if s.storeGuard(w, r) {
			noRoute(w, r)
		}
	}))
	if s.obs != nil {
		mux.Handle("/metrics", s.obs.reg.Handler())
		route{path: "/v1/debug/slow", get: s.handleSlow}.register(mux, nil)
	}
	return mux
}

// route is one v1 path and its handler per served method (nil: not
// served), in Allow order. guard, when set, runs first — before any
// method check — and returns false once it has answered the request.
type route struct {
	path           string
	guard          func(http.ResponseWriter, *http.Request) bool
	get, post, del http.HandlerFunc
}

// register puts the route on mux: a "METHOD path" pattern per served
// method, plus a method-less pattern answering every other method with
// the v1 405 envelope and Allow. Go's GET patterns also match HEAD,
// which v1 never served, so HEAD goes to the 405 explicitly. wrap (nil:
// none) wraps every pattern's handler, guard included, under the
// route's label: the pattern path, fixed here so the label set stays
// bounded — never a raw request path.
func (rt route) register(mux *http.ServeMux, wrap func(label string, h http.HandlerFunc) http.HandlerFunc) {
	handle := func(pattern string, h http.HandlerFunc) {
		if guard, next := rt.guard, h; guard != nil {
			h = func(w http.ResponseWriter, r *http.Request) {
				if guard(w, r) {
					next(w, r)
				}
			}
		}
		if wrap != nil {
			h = wrap(strings.TrimSuffix(rt.path, "{$}"), h)
		}
		mux.HandleFunc(pattern, h)
	}
	var allow []string
	for _, m := range []struct {
		method string
		h      http.HandlerFunc
	}{{http.MethodGet, rt.get}, {http.MethodPost, rt.post}, {http.MethodDelete, rt.del}} {
		if m.h != nil {
			allow = append(allow, m.method)
			handle(m.method+" "+rt.path, m.h)
		}
	}
	notAllowed := func(w http.ResponseWriter, r *http.Request) { methodNotAllowed(w, allow...) }
	if rt.get != nil {
		handle(http.MethodHead+" "+rt.path, notAllowed)
	}
	handle(rt.path, notAllowed)
}

// idGuard admits a request whose {id} is one path segment. The
// wildcard also matches an escaped slash (/v1/jobs/a%2Fb), which names
// no job: registration rejects IDs containing '/'.
func idGuard(w http.ResponseWriter, r *http.Request) bool {
	if strings.Contains(r.PathValue("id"), "/") {
		noRoute(w, r)
		return false
	}
	return true
}

// storeGuard answers 501 when no durable store is attached.
func (s *Server) storeGuard(w http.ResponseWriter, r *http.Request) bool {
	if !s.HasStore() {
		httpError(w, http.StatusNotImplemented, codeUnimplemented, "server has no telemetry store (-data-dir)")
		return false
	}
	return true
}

func noRoute(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, codeNotFound, "no such route")
}

// --- wire types -------------------------------------------------------

// The engine's wire types ARE the v1 JSON schema; aliases keep the
// adapter (and its tests) in the protocol's vocabulary.
type (
	wireSample  = monitor.Sample
	sampleBatch = monitor.Batch
)

type registerRequest struct {
	JobID string `json:"job_id"`
	Nodes int    `json:"nodes"`
}

// ingestRequest is the JSON body of POST /v1/samples: either the
// single-job form (job_id + samples) or the multi-job form (batches),
// which groups samples by job so each shard is locked once per
// request.
type ingestRequest struct {
	JobID   string        `json:"job_id"`
	Samples []wireSample  `json:"samples"`
	Batches []sampleBatch `json:"batches"`
}

type ingestResponse struct {
	Accepted int      `json:"accepted"`
	Unknown  []string `json:"unknown,omitempty"`
}

type labelRequest struct {
	App   string `json:"app"`
	Input string `json:"input"`
}

// --- error envelope ---------------------------------------------------

// Machine-readable error codes of the v1 envelope.
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeConflict         = "conflict"
	codeTooManyJobs      = "resource_exhausted"
	codeMethodNotAllowed = "method_not_allowed"
	codePayloadTooLarge  = "payload_too_large"
	codeUnimplemented    = "unimplemented"
	codeOverloaded       = "overloaded"
	codeReadOnly         = "read_only"
	codeInternal         = "internal"
)

// overloadRetryAfterS is the Retry-After hint on 429 overload answers.
// The admission gate drains as fast as in-flight requests finish, so a
// short fixed hint beats an estimate.
const overloadRetryAfterS = "1"

// readonlyRetryAfterS is the Retry-After hint on 503 read-only
// answers. Disk space frees on operator timescales, and the engine's
// resume probe runs every StoreProbeInterval, so the hint is longer
// than the overload one.
const readonlyRetryAfterS = "5"

type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// engineError maps an engine error onto (status, code) and writes the
// envelope. The "monitor: " prefix is the library's, not the wire
// protocol's, so it is trimmed from the message.
func engineError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, codeInternal
	switch {
	case errors.Is(err, monitor.ErrInvalid):
		status, code = http.StatusBadRequest, codeBadRequest
	case errors.Is(err, monitor.ErrUnknownJob):
		status, code = http.StatusNotFound, codeNotFound
	case errors.Is(err, monitor.ErrJobExists):
		status, code = http.StatusConflict, codeConflict
	case errors.Is(err, monitor.ErrNotComplete):
		status, code = http.StatusConflict, codeConflict
	case errors.Is(err, monitor.ErrTableFull):
		status, code = http.StatusTooManyRequests, codeTooManyJobs
	case errors.Is(err, monitor.ErrOverloaded):
		w.Header().Set("Retry-After", overloadRetryAfterS)
		status, code = http.StatusTooManyRequests, codeOverloaded
	case errors.Is(err, monitor.ErrReadOnly):
		// Disk-full read-only mode: the write was shed, nothing is
		// lost, and the engine resumes by itself once space frees —
		// the retryable 503 contract.
		w.Header().Set("Retry-After", readonlyRetryAfterS)
		status, code = http.StatusServiceUnavailable, codeReadOnly
	case errors.Is(err, monitor.ErrNoStore):
		status, code = http.StatusNotImplemented, codeUnimplemented
	}
	httpError(w, status, code, "%s", strings.TrimPrefix(err.Error(), "monitor: "))
}

// methodNotAllowed answers 405 with the mandatory Allow header.
func methodNotAllowed(w http.ResponseWriter, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method not allowed (use %s)", strings.Join(allow, " or "))
}

// decodeJSON decodes a bounded request body, distinguishing oversized
// bodies (413) from malformed ones (400). The caller must have
// wrapped the body with s.limitBody.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

// limitBody caps the request body at MaxBodyBytes.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleHealthV1 serves GET /v1/health: the engine's health snapshot.
// Always 200 — a degraded engine still serves, and load balancers that
// should stop sending traffic can inspect the status field. /healthz
// stays the bare liveness probe.
func (s *Server) handleHealthV1(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

func (s *Server) handleDictionary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.DictionaryInfo())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req registerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, err := s.Register(req.JobID, req.Nodes); err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"job_id": req.JobID})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad offset %q", q.Get("offset"))
		return
	}
	limit, err := queryInt(q.Get("limit"), 100)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad limit %q (1..1000)", q.Get("limit"))
		return
	}
	listing, lerr := s.Jobs(offset, limit)
	if lerr != nil {
		engineError(w, lerr)
		return
	}
	writeJSON(w, http.StatusOK, listing)
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	// Admission control before any decoding: a flood of ingest
	// requests is refused from the Content-Length alone (429 +
	// Retry-After), so overload sheds cheaply instead of buffering
	// unbounded request bodies. Chunked bodies (no declared length)
	// are charged the worst case the body limit allows.
	est := r.ContentLength
	if est < 0 {
		est = s.MaxBodyBytes
	}
	release, aerr := s.AcquireIngest(est)
	if aerr != nil {
		engineError(w, aerr)
		return
	}
	defer release()
	s.limitBody(w, r)
	if isRunsContentType(r.Header.Get("Content-Type")) {
		s.handleSamplesBinary(w, r)
		return
	}
	// Span stages time the ingest pipeline (decode → engine, the
	// latter covering feed + WAL append + group commit); the clock is
	// only read when tracing is on.
	span := obs.SpanFrom(r.Context())
	var t0 time.Time
	if span != nil {
		t0 = time.Now()
	}
	var req ingestRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	single := len(req.Batches) == 0
	batches := req.Batches
	if req.JobID != "" || len(req.Samples) > 0 {
		batches = append(batches, sampleBatch{JobID: req.JobID, Samples: req.Samples})
	}
	if len(batches) == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "empty ingest request")
		return
	}
	if span != nil {
		span.RecordStage("decode", time.Since(t0))
		t0 = time.Now()
	}
	accepted, unknown, err := s.IngestBatches(batches)
	if span != nil {
		span.RecordStage("engine", time.Since(t0))
	}
	s.writeIngestOutcome(w, single, accepted, unknown, err)
}

// writeIngestOutcome maps an engine ingest result onto the v1
// response: engine errors keep their status, fully-unknown requests
// are 404 (with the single-job form's original message shape), and
// partial success reports the sorted unknown IDs alongside the count.
func (s *Server) writeIngestOutcome(w http.ResponseWriter, single bool, accepted int, unknown []string, err error) {
	if err != nil {
		engineError(w, err)
		return
	}
	if len(unknown) > 0 && accepted == 0 {
		if single {
			httpError(w, http.StatusNotFound, codeNotFound, "unknown job %q", unknown[0])
		} else {
			httpError(w, http.StatusNotFound, codeNotFound, "unknown jobs: %s", strings.Join(unknown, ", "))
		}
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted, Unknown: unknown})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "unknown job %q", id)
		return
	}
	state, err := j.Result()
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, state)
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req labelRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	j, ok := s.Lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "unknown job %q", id)
		return
	}
	learned, err := j.Label(req.App, req.Input)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"learned": learned})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Lookup(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "unknown job %q", id)
		return
	}
	if err := j.Close(); err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// --- helpers ----------------------------------------------------------

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
