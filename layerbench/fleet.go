package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskalloc/internal/gridcoord"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
)

// Servers run in-process, configured as users run them: simserve with
// Workers = MaxConcurrent = GOMAXPROCS (its own default), the
// coordinator with default Options plus a registry, as simgrid -serve
// builds it. Each listens on its own loopback port and is reached only
// over HTTP.

// server is one simserve instance behind a stable URL. restart swaps in
// a freshly opened Server on the same options (and data directory)
// without changing the URL.
type server struct {
	opts simserver.Options
	url  string
	hs   *http.Server
	done chan struct{}
	cur  atomic.Pointer[simserver.Server]

	// Metric deltas folded across restarts (a restart starts a fresh
	// registry); guarded by mu, active between beginDelta and endDelta.
	mu       sync.Mutex
	tracking bool
	base     scrape
	acc      scrape
	scrapeHC *http.Client
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func serveOn(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

func startServer(opts simserver.Options) (*server, error) {
	opts.Workers, opts.MaxConcurrent = nproc(), nproc()
	srv, err := simserver.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open simserve: %w", err)
	}
	s := &server{opts: opts, scrapeHC: &http.Client{Transport: &http.Transport{}}}
	s.cur.Store(srv)
	s.hs, s.url, s.done, err = serveOn(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cur.Load().ServeHTTP(w, r)
	}))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return s, nil
}

// restart closes the running Server (draining it) and opens a new one
// on the same options, returning how long simserver.Open took. Only
// call it with no request in flight.
func (s *server) restart(ctx context.Context) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tracking {
		pre, err := fetchMetrics(ctx, s.scrapeHC, s.url)
		if err != nil {
			return 0, err
		}
		s.acc.add(pre.sub(s.base))
	}
	s.cur.Load().Close()
	t0 := time.Now()
	srv, err := simserver.Open(s.opts)
	open := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("reopen simserve: %w", err)
	}
	s.cur.Store(srv)
	if s.tracking {
		base, err := fetchMetrics(ctx, s.scrapeHC, s.url)
		if err != nil {
			return 0, err
		}
		s.base = base
	}
	return open, nil
}

// beginDelta starts accumulating this server's /v1/metrics activity.
func (s *server) beginDelta(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, err := fetchMetrics(ctx, s.scrapeHC, s.url)
	if err != nil {
		return err
	}
	s.tracking, s.base, s.acc = true, base, scrape{}
	return nil
}

// endDelta returns the activity since beginDelta, across restarts.
func (s *server) endDelta(ctx context.Context) (scrape, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tracking {
		return nil, errors.New("endDelta without beginDelta")
	}
	now, err := fetchMetrics(ctx, s.scrapeHC, s.url)
	if err != nil {
		return nil, err
	}
	s.acc.add(now.sub(s.base))
	s.tracking = false
	return s.acc, nil
}

func (s *server) close() {
	_ = s.hs.Close()
	<-s.done
	s.cur.Load().Close()
	s.scrapeHC.CloseIdleConnections()
}

// coordServer is a gridcoord.Coordinator served over HTTP.
type coordServer struct {
	coord *gridcoord.Coordinator
	url   string
	hs    *http.Server
	done  chan struct{}
}

func startCoordinator(backends []*server) (*coordServer, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	coord, err := gridcoord.New(gridcoord.Options{
		Backends: urls,
		Attempts: 3, // simgrid's -attempts default
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		return nil, fmt.Errorf("new coordinator: %w", err)
	}
	c := &coordServer{coord: coord}
	c.hs, c.url, c.done, err = serveOn(coord.Handler())
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *coordServer) close() {
	_ = c.hs.Close()
	<-c.done
}

// fleet is a coordinator over its backends.
type fleet struct {
	backends []*server
	coord    *coordServer
	delays   []time.Duration
}

// startFleet boots one memory-only backend per delay (the JobDelay test
// hook; zero for none) and a coordinator over them.
func startFleet(delays []time.Duration) (*fleet, error) {
	f := &fleet{delays: delays}
	for _, d := range delays {
		b, err := startServer(simserver.Options{JobDelay: d})
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	c, err := startCoordinator(f.backends)
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	return f, nil
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.close()
	}
	for _, b := range f.backends {
		b.close()
	}
	// The coordinator talks to backends through http.DefaultClient (as
	// simgrid does); drop its pooled connections to the closed backends.
	http.DefaultClient.CloseIdleConnections()
}

// slowIndex is the backend with the largest JobDelay (backend 1 when
// the fleet is uniform).
func (f *fleet) slowIndex() int {
	slow := 1
	for i, d := range f.delays {
		if d > f.delays[slow] {
			slow = i
		}
	}
	return slow
}

// beginDelta/endDelta bracket the fleet's activity: the coordinator's
// own series and the sum of its backends'.
func (f *fleet) beginDelta(ctx context.Context, hc *http.Client) (scrape, error) {
	for _, b := range f.backends {
		if err := b.beginDelta(ctx); err != nil {
			return nil, err
		}
	}
	return fetchMetrics(ctx, hc, f.coord.url)
}

func (f *fleet) endDelta(ctx context.Context, hc *http.Client, coordBase scrape) (backends, coord scrape, err error) {
	backends = scrape{}
	for _, b := range f.backends {
		d, err := b.endDelta(ctx)
		if err != nil {
			return nil, nil, err
		}
		backends.add(d)
	}
	now, err := fetchMetrics(ctx, hc, f.coord.url)
	if err != nil {
		return nil, nil, err
	}
	return backends, now.sub(coordBase), nil
}

// heteroDelays is the BENCH_7 topology: backend 1 is 10x slower per
// freshly computed job.
var heteroDelays = []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 2 * time.Millisecond}

var uniformDelays = []time.Duration{0, 0, 0}
