package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/efd/client"
	"repro/efd/monitor"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// storeOptions are the store settings of every engine the benchmark
// times end to end: the defaults, except that fsync is off. The store
// still write-ahead logs every acknowledged run through the page cache,
// and the restart check still replays it. With fsync on, five
// consecutive 10 s ingest runs on a virtio disk shared with other
// tenants measured 192k to 450k samples/s, against 680k to 720k with it
// off: the disk's neighbours, not the program, set the number. The
// fsync cost itself is measured per layer by the tsdb replay, which
// keeps fsync on (tsdb.commit_us, vfs.sync_us).
var storeOptions = monitor.StoreOptions{NoSync: true}

// system is the service under test, assembled the way cmd/efdd
// assembles it: metrics and HTTP observability on, default admission
// caps, a durable store (storeOptions), a real loopback listener, and
// an efd/client caller.
type system struct {
	eng      *monitor.Engine
	hs       *http.Server
	serveErr chan error
	tr       *http.Transport
	cl       *client.Client
	dir      string
	retries  atomic.Int64
	tc       *tracer
	stopped  bool
}

// startSystem serves dict from a store in dir. A non-nil tracer wraps
// two seams: the handler gets the span middleware, and the client's
// transport the span RoundTripper.
func startSystem(dict *core.Dictionary, dir string, seed int64, tc *tracer) (*system, error) {
	eng := monitor.New(dict)
	srv := server.NewEngine(eng)
	reg := obs.NewRegistry()
	eng.EnableMetrics(reg)
	srv.EnableObs(reg, uint64(seed))
	if _, err := eng.OpenStore(dir, storeOptions); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.CloseStore()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tc != nil {
		h = tc.middleware(h)
	}
	s := &system{eng: eng, dir: dir, tc: tc, serveErr: make(chan error, 1)}
	s.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.tr = http.DefaultTransport.(*http.Transport).Clone()
	s.tr.MaxConnsPerHost = 2
	var rt http.RoundTripper = s.tr
	if tc != nil {
		rt = tc.roundTripper(s.tr)
	}
	s.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}),
		client.WithMetrics(client.Metrics{Retry: func() { s.retries.Add(1) }}))
	return s, nil
}

// stopServing shuts the listener down and waits for Serve to return.
// Later calls do nothing.
func (s *system) stopServing() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// close stops serving and closes the store (flushing labelled jobs).
func (s *system) close() error {
	return errors.Join(s.stopServing(), s.eng.CloseStore())
}
