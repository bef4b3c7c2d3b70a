package main

// The traced run's span recorder. Spans are taken at the seams the
// benchmark can reach from outside the program: the client call, the
// http.RoundTripper under efd/client, and a middleware around the
// server handler. Spans of one request
// share the X-Efd-Trace ID the RoundTripper stamps on it; the server
// echoes that ID. Aggregates are kept per call kind, and the first
// spanSampleCap requests are kept raw and written out at the end.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// spanSampleCap bounds the raw spans held for the trace file.
const spanSampleCap = 2000

// callKind names the client calls the workloads make.
type callKind int

const (
	callIngestRuns callKind = iota // binary Client.IngestRuns
	callIngestRows                 // JSON Client.Ingest
	callResult                     // Client.Result
	callLifecycle                  // Register, Label, Delete
	numCallKinds
)

var callKindNames = [numCallKinds]string{"ingest_runs", "ingest_rows", "result", "lifecycle"}

// callAgg sums one call kind's spans.
type callAgg struct {
	n         int64
	call      time.Duration // client method wall time
	roundTrip time.Duration // RoundTripper spans
	handler   time.Duration // server handler spans
	reqBytes  int64
	respBytes int64
}

// span is one recorded interval, relative to the tracer's start.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// requestSpans is the raw trace of one client call.
type requestSpans struct {
	Trace string `json:"trace"`
	Kind  string `json:"kind"`
	Spans []span `json:"spans"`
}

// handlerSpan is what the server middleware saw for one trace ID.
type handlerSpan struct {
	route string
	start time.Time
	dur   time.Duration
}

type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu       sync.Mutex
	handlers map[string][]handlerSpan
	routes   map[string]*routeAgg
	non2xx   map[int]int64
	calls    [numCallKinds]callAgg
	sample   []requestSpans
}

type routeAgg struct {
	n   int64
	dur time.Duration
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		handlers: make(map[string][]handlerSpan),
		routes:   make(map[string]*routeAgg),
		non2xx:   make(map[int]int64),
	}
}

// callSpan is one in-flight client call.
type callSpan struct {
	id     string
	kind   callKind
	start  time.Time
	mu     sync.Mutex
	trips  []span
	tripNS time.Duration
	req    int64
	resp   int64
}

type callKey struct{}

// begin opens a call span and returns a context carrying it, so the
// RoundTripper can attach its spans and stamp the trace ID. A nil
// tracer (the untraced run) returns ctx unchanged.
func (tc *tracer) begin(ctx context.Context, kind callKind) (context.Context, *callSpan) {
	if tc == nil {
		return ctx, nil
	}
	cs := &callSpan{id: fmt.Sprintf("%016x", tc.next.Add(1)), kind: kind, start: time.Now()}
	return context.WithValue(ctx, callKey{}, cs), cs
}

// end closes a call span and folds it into the aggregates. The server
// records its handler span before it flushes the response, so by the
// time the client call returns the handler spans are in the map.
func (tc *tracer) end(cs *callSpan) {
	if tc == nil || cs == nil {
		return
	}
	callDur := time.Since(cs.start)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	hs := tc.handlers[cs.id]
	delete(tc.handlers, cs.id)
	agg := &tc.calls[cs.kind]
	agg.n++
	agg.call += callDur
	cs.mu.Lock()
	defer cs.mu.Unlock()
	agg.roundTrip += cs.tripNS
	agg.reqBytes += cs.req
	agg.respBytes += cs.resp
	for _, h := range hs {
		agg.handler += h.dur
	}
	if len(tc.sample) < spanSampleCap {
		rs := requestSpans{Trace: cs.id, Kind: callKindNames[cs.kind]}
		rs.Spans = append(rs.Spans, span{Name: "client.call", StartUS: tc.us(cs.start), DurUS: usOf(callDur)})
		rs.Spans = append(rs.Spans, cs.trips...)
		for _, h := range hs {
			rs.Spans = append(rs.Spans, span{Name: "server.handler " + h.route, Parent: "transport.roundtrip", StartUS: tc.us(h.start), DurUS: usOf(h.dur)})
		}
		tc.sample = append(tc.sample, rs)
	}
}

func (tc *tracer) us(t time.Time) float64 { return usOf(t.Sub(tc.t0)) }

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// roundTripper wraps the client's transport: it stamps the call's
// trace ID on every attempt and times each round trip up to the close
// of the response body, which efd/client reads to the end.
func (tc *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		cs, _ := req.Context().Value(callKey{}).(*callSpan)
		if cs == nil {
			return base.RoundTrip(req)
		}
		req = req.Clone(req.Context())
		req.Header.Set(obs.TraceHeader, cs.id)
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			cs.addTrip(tc, start, 0, 0)
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
			cs.addTrip(tc, start, max(req.ContentLength, 0), n)
		}}
		return resp, nil
	})
}

func (cs *callSpan) addTrip(tc *tracer, start time.Time, req, resp int64) {
	d := time.Since(start)
	cs.mu.Lock()
	cs.trips = append(cs.trips, span{Name: "transport.roundtrip", Parent: "client.call", StartUS: tc.us(start), DurUS: usOf(d)})
	cs.tripNS += d
	cs.req += req
	cs.resp += resp
	cs.mu.Unlock()
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody reports the bytes read once the body is closed.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// middleware times (*server.Server).Handler() per request and counts
// non-2xx answers by status.
func (tc *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		d := time.Since(start)
		route := routeOf(r)
		tc.mu.Lock()
		if id != "" {
			tc.handlers[id] = append(tc.handlers[id], handlerSpan{route: route, start: start, dur: d})
		}
		ra := tc.routes[route]
		if ra == nil {
			ra = &routeAgg{}
			tc.routes[route] = ra
		}
		ra.n++
		ra.dur += d
		if sw.status < 200 || sw.status > 299 {
			tc.non2xx[sw.status]++
		}
		tc.mu.Unlock()
	})
}

// routeOf names the v1 route of a request for the per-route handler
// metrics.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/samples":
		return "samples"
	case p == "/v1/jobs":
		return "register"
	case strings.HasSuffix(p, "/label"):
		return "label"
	case strings.HasPrefix(p, "/v1/jobs/") && r.Method == http.MethodDelete:
		return "delete"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "result"
	}
	return "other"
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// writeSpans writes the sampled raw spans as JSON lines.
func (tc *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tc.mu.Lock()
	for _, rs := range tc.sample {
		if err := enc.Encode(rs); err != nil {
			tc.mu.Unlock()
			f.Close()
			return err
		}
	}
	tc.mu.Unlock()
	return f.Close()
}
