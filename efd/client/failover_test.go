package client

// Multi-endpoint failover: health-aware routing around read-only and
// dead endpoints, the write-failover opt-in, BatchWriter re-homing
// with zero acked-sample loss across two real servers, and the
// goroutine-leak pin on the prober. Run under -race.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/server"
)

// stubEndpoint is a scripted server: a dialable health status, a 503
// shed while read-only, and counters for what it saw.
type stubEndpoint struct {
	health atomic.Value // status string
	posts  atomic.Int64
	gets   atomic.Int64
	ts     *httptest.Server
}

func newStub(t *testing.T, status string) *stubEndpoint {
	t.Helper()
	s := &stubEndpoint{}
	s.health.Store(status)
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/health" {
			fmt.Fprintf(w, `{"status":%q}`, s.health.Load())
			return
		}
		if r.Method == http.MethodPost {
			s.posts.Add(1)
			if s.health.Load() == monitor.StatusReadonly {
				w.Header().Set("Retry-After", "5")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":{"code":"read_only","message":"telemetry store append: monitor: store is read-only (disk full)"}}`)
				return
			}
			fmt.Fprint(w, `{"accepted":1}`)
			return
		}
		s.gets.Add(1)
		fmt.Fprint(w, `{}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// homedJobID finds a job ID whose affinity home is endpoint `want` of
// `n` — the tests pick their victim endpoint deterministically.
func homedJobID(want, n int) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("fo%d", i)
		if int(fnv1a(id)%uint32(n)) == want {
			return id
		}
	}
}

func waitEndpointStatus(t *testing.T, c *Client, idx int, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := c.Endpoints()[idx].Status; got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint %d never reached %q: %+v", idx, want, c.Endpoints())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMultiRoutesWritesAroundReadonly: once the prober sees an
// endpoint in disk-full read-only mode, writes route to a healthy
// peer up front — no shed-and-retry round trip — and come back home
// when the disk recovers.
func TestMultiRoutesWritesAroundReadonly(t *testing.T) {
	home := newStub(t, monitor.StatusReadonly)
	peer := newStub(t, monitor.StatusHealthy)
	// The probe timeout is min(interval, 1 s): at a few milliseconds a
	// slow probe of the peer would mark it down, below the readonly
	// home.
	c := NewMulti([]string{home.ts.URL, peer.ts.URL}, WithHealthProbe(50*time.Millisecond), WithRetry(0, 0))
	defer c.Close()
	id := homedJobID(0, 2)
	ctx := context.Background()

	waitEndpointStatus(t, c, 0, monitor.StatusReadonly)
	waitEndpointStatus(t, c, 1, monitor.StatusHealthy)
	if _, err := c.Ingest(ctx, id, []monitor.Sample{{Metric: "m", Value: 1}}); err != nil {
		t.Fatalf("ingest with readonly home: %v", err)
	}
	if home.posts.Load() != 0 || peer.posts.Load() != 1 {
		t.Fatalf("posts home=%d peer=%d, want 0 and 1 (routed around readonly)", home.posts.Load(), peer.posts.Load())
	}
	// Reads still prefer the home endpoint: read-only serves them all.
	if _, err := c.Result(ctx, id); err != nil {
		t.Fatal(err)
	}
	if home.gets.Load() != 1 {
		t.Fatalf("home gets = %d, want 1 (readonly still serves reads)", home.gets.Load())
	}

	// Disk recovers; writes come home.
	home.health.Store(monitor.StatusHealthy)
	waitEndpointStatus(t, c, 0, monitor.StatusHealthy)
	waitEndpointStatus(t, c, 1, monitor.StatusHealthy)
	if _, err := c.Ingest(ctx, id, []monitor.Sample{{Metric: "m", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if home.posts.Load() != 1 {
		t.Fatalf("home posts = %d, want 1 (writes re-homed after recovery)", home.posts.Load())
	}
}

// TestMultiWritesStayHomeWhenGateSaturated: a saturated ingest
// admission gate is no store mode. The prober must not read it as a
// full disk and route the job's writes to a peer that does not know
// the job.
func TestMultiWritesStayHomeWhenGateSaturated(t *testing.T) {
	ctx := context.Background()
	eng := monitor.New(trainedDict(t))
	eng.MaxIngestBatches = 1
	home := httptest.NewServer(server.NewEngine(eng).Handler())
	t.Cleanup(home.Close)
	peer := newStub(t, monitor.StatusHealthy)
	id := homedJobID(0, 2)
	if err := New(home.URL).Register(ctx, id, 2); err != nil {
		t.Fatal(err)
	}

	// Hold the gate full through the prober's only sweep, which probes
	// the home endpoint before the peer.
	release, err := eng.AcquireIngest(0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewMulti([]string{home.URL, peer.ts.URL}, WithHealthProbe(time.Hour), WithRetry(0, 0))
	defer c.Close()
	waitEndpointStatus(t, c, 1, monitor.StatusHealthy)
	release()

	if _, err := c.Ingest(ctx, id, flatSamples(6000, 2)[:1]); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if got := peer.posts.Load(); got != 0 {
		t.Fatalf("peer received %d writes; the saturated home was ranked as a full disk", got)
	}
	if got := eng.Stats().SamplesAccepted; got != 1 {
		t.Fatalf("home accepted %d samples, want 1", got)
	}
}

// TestMultiReadFailover: an idempotent read whose home endpoint died
// fails over to the peer — even before the prober has noticed — and
// the prober then marks the dead endpoint down.
func TestMultiReadFailover(t *testing.T) {
	home := newStub(t, monitor.StatusHealthy)
	peer := newStub(t, monitor.StatusHealthy)
	c := NewMulti([]string{home.ts.URL, peer.ts.URL}, WithHealthProbe(2*time.Millisecond), WithRetry(1, time.Millisecond))
	defer c.Close()
	id := homedJobID(0, 2)

	waitEndpointStatus(t, c, 0, monitor.StatusHealthy)
	home.ts.Close()
	if _, err := c.Result(context.Background(), id); err != nil {
		t.Fatalf("read failover: %v", err)
	}
	if peer.gets.Load() == 0 {
		t.Fatal("peer never saw the failed-over read")
	}
	waitEndpointStatus(t, c, 0, StatusDown)
}

// TestMultiWriteFailoverOptIn: writes to a dead home endpoint fail by
// default and re-home only under WithWriteFailover.
func TestMultiWriteFailoverOptIn(t *testing.T) {
	ctx := context.Background()
	sample := []monitor.Sample{{Metric: "m", Value: 1}}

	home := newStub(t, monitor.StatusHealthy)
	peer := newStub(t, monitor.StatusHealthy)
	id := homedJobID(0, 2)
	// The long interval leaves only the prober's immediate first
	// sweep; waiting it out while both endpoints serve means no later
	// probe can see the home endpoint die and rank it down, so routing
	// alone cannot save the write — failover must.
	pinned := NewMulti([]string{home.ts.URL, peer.ts.URL}, WithHealthProbe(time.Hour))
	defer pinned.Close()
	rehoming := NewMulti([]string{home.ts.URL, peer.ts.URL}, WithHealthProbe(time.Hour), WithWriteFailover())
	defer rehoming.Close()
	waitEndpointStatus(t, pinned, 0, monitor.StatusHealthy)
	waitEndpointStatus(t, rehoming, 0, monitor.StatusHealthy)

	home.ts.Close()
	if _, err := pinned.Ingest(ctx, id, sample); err == nil {
		t.Fatal("pinned write to a dead home endpoint should fail")
	}
	if peer.posts.Load() != 0 {
		t.Fatalf("pinned write reached the peer (%d posts) without opt-in", peer.posts.Load())
	}
	if _, err := rehoming.Ingest(ctx, id, sample); err != nil {
		t.Fatalf("write failover: %v", err)
	}
	if peer.posts.Load() != 1 {
		t.Fatalf("peer posts = %d, want 1 (re-homed write)", peer.posts.Load())
	}
}

// TestBatchWriterReHomesOnFailover is the two-instance failover
// contract: a BatchWriter feeding two real servers loses its home
// endpoint mid-stream, re-homes the buffered un-acked batch to the
// survivor, and no acked sample is lost — the two engines together
// hold exactly every sample the writer flushed.
func TestBatchWriterReHomesOnFailover(t *testing.T) {
	ctx := context.Background()
	engines := []*monitor.Engine{monitor.New(trainedDict(t)), monitor.New(trainedDict(t))}
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i, eng := range engines {
		ts := httptest.NewServer(server.NewEngine(eng).Handler())
		t.Cleanup(ts.Close)
		servers[i], urls[i] = ts, ts.URL
	}
	id := homedJobID(0, 2)
	// Mirrored registration, as a failover deployment runs: the job
	// exists on every endpoint a write could re-home to.
	for _, u := range urls {
		if err := New(u).Register(ctx, id, 2); err != nil {
			t.Fatal(err)
		}
	}

	c := NewMulti(urls, WithWriteFailover(), WithHealthProbe(2*time.Millisecond))
	defer c.Close()
	w := c.NewBatchWriter(BatchWriterConfig{FlushSamples: 1 << 20, FlushInterval: -1, OverloadBackoff: time.Millisecond})
	samples := flatSamples(6010, 2)
	half := len(samples) / 2
	for _, s := range samples[:half] {
		if err := w.Add(id, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatalf("flush to home endpoint: %v", err)
	}
	if got := engines[0].Stats().SamplesAccepted; got != int64(half) {
		t.Fatalf("home endpoint acked %d samples, want %d", got, half)
	}

	// The home endpoint dies with the next batch still buffered.
	servers[0].Close()
	for _, s := range samples[half:] {
		if err := w.Add(id, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatalf("re-homed flush: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero acked-sample loss: every flushed sample lives on one of the
	// two endpoints, and the survivor took exactly the re-homed half.
	total := engines[0].Stats().SamplesAccepted + engines[1].Stats().SamplesAccepted
	if total != int64(len(samples)) {
		t.Fatalf("engines hold %d samples, want %d (acked samples lost)", total, len(samples))
	}
	if got := engines[1].Stats().SamplesAccepted; got != int64(len(samples)-half) {
		t.Fatalf("survivor holds %d samples, want %d", got, len(samples)-half)
	}
	waitEndpointStatus(t, c, 0, StatusDown)
}

// TestMultiProberNoLeak: Close must reap the health prober, cycle
// after cycle, breakers armed or not.
func TestMultiProberNoLeak(t *testing.T) {
	a := newStub(t, monitor.StatusHealthy)
	b := newStub(t, monitor.StatusHealthy)
	// Keep-alives off: idle connection goroutines would otherwise
	// linger past Close and muddy the count.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c := NewMulti([]string{a.ts.URL, b.ts.URL},
			WithHTTPClient(hc),
			WithHealthProbe(time.Millisecond),
			WithCircuitBreaker(3, 50*time.Millisecond))
		waitEndpointStatus(t, c, 1, monitor.StatusHealthy)
		c.Close()
		c.Close() // idempotent
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
