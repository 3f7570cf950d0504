// Command simserve runs the simulation service: an HTTP front end that
// accepts wire-format job grids (POST /v1/sweeps), fans them out on the
// multi-simulation batch runner over one shared colony worker pool, and
// streams per-cell results back in byte-stable job order. See
// internal/simserver for the API and internal/wire for the format.
//
//	simserve -addr :8080 -workers 8
//
// Durable mode (-data-dir) journals every sweep to disk: a restart on
// the same directory replays completed sweeps from the journal, resumes
// interrupted ones, and lets clients reconnect to a half-streamed
// response via GET /v1/sweeps/{id}?cursor=N. Sweeps and bisects reuse
// each other's cells through the job tier: in memory, any cell a held
// sweep or bisect search holds (-cache-entries and -cache-bytes bound
// them); each bisect search journals its fresh cells too, and every
// journal record carries its cell's key, so after a restart the
// journals' key index serves any cell a committed journal holds. One
// -data-bytes budget covers all journals. -tenants FILE enables
// bearer-token auth with per-tenant quotas and rate limits (a JSON
// array of tenant objects; see API.md). What one request may buy (the
// body size, jobs per grid, rounds and ants per cell, the frozen-horizon
// budget, the bisect evaluation budget) is no flag: those bounds are
// constants of the wire format, the same on every backend and the grid
// coordinator.
//
// Observability: GET /v1/metrics serves Prometheus text exposition of
// every counter the service keeps (GET /v1/healthz is liveness only),
// -access-log emits one JSON line per request to stderr, and
// -pprof-addr serves net/http/pprof on its own listener.
//
// The bound address is printed on stdout as "listening on <addr>" once
// the listener is up (with -addr :0 this is how callers learn the
// port). SIGINT/SIGTERM trigger a graceful drain: in-flight sweeps
// finish, new submissions get 503, and the worker pool is shut down
// before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"taskalloc/internal/simserver"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers  = flag.Int("workers", 0, "per-sweep simulations in flight (0 = GOMAXPROCS)")
		maxConc  = flag.Int("max-concurrent", 0, "simulations in flight across all requests (0 = GOMAXPROCS)")
		cacheCap = flag.Int("cache-entries", 128, "memory-tier entries kept: completed sweeps, for cached replay, and bisect searches; their cells are reused by later sweeps and bisects")
		cacheB   = flag.Int64("cache-bytes", 256<<20, "retained-bytes budget of the memory tier's entries (trajectories dominate)")
		drainFor = flag.Duration("drain-timeout", time.Minute,
			"grace for in-flight HTTP handlers on shutdown (sweeps still drain fully after it; a second signal force-kills)")
		dataDir  = flag.String("data-dir", "", "enable durability: journal sweeps and bisect cells under this directory (empty = memory-only)")
		dataB    = flag.Int64("data-bytes", 4<<30, "disk budget for all journals (oldest complete journals evicted past it)")
		syncWr   = flag.Bool("sync", false, "fsync every journal append (survives machine crash, not just process kill; slow)")
		tenants  = flag.String("tenants", "", "JSON file of tenant configs enabling bearer-token auth (empty = open server)")
		logReqs  = flag.Bool("access-log", false, "emit one JSON line per request (method, route, status, request/trace IDs) to stderr")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled; never exposed on the API listener)")
		jobDelay = flag.Duration("test-job-delay", 0, "TEST HOOK: sleep this long before every freshly computed job (models a slow host for grid chaos tests; 0 = off)")
	)
	flag.Parse()

	var tenantCfgs []simserver.TenantConfig
	if *tenants != "" {
		raw, err := os.ReadFile(*tenants)
		if err != nil {
			log.Fatalf("simserve: read -tenants: %v", err)
		}
		if err := json.Unmarshal(raw, &tenantCfgs); err != nil {
			log.Fatalf("simserve: parse -tenants: %v", err)
		}
	}
	opts := simserver.Options{
		Workers:       *workers,
		MaxConcurrent: *maxConc,
		CacheEntries:  *cacheCap,
		CacheBytes:    *cacheB,
		DataDir:       *dataDir,
		DataBytes:     *dataB,
		SyncWrites:    *syncWr,
		Tenants:       tenantCfgs,
		JobDelay:      *jobDelay,
	}
	if *logReqs {
		opts.AccessLog = os.Stderr
	}
	srv, err := simserver.Open(opts)
	if err != nil {
		log.Fatalf("simserve: %v", err)
	}
	hs := &http.Server{Handler: srv}

	if *pprofAdr != "" {
		// pprof gets its own listener and an explicit mux: the profiling
		// surface is opt-in and never reachable through the API address.
		pl, err := net.Listen("tcp", *pprofAdr)
		if err != nil {
			log.Fatalf("simserve: pprof: %v", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("simserve: pprof listening on %s", pl.Addr())
		go func() { _ = http.Serve(pl, pm) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("simserve: %v", err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("simserve: %v", err)
	case <-ctx.Done():
	}
	// Restore default signal disposition immediately: the drain below
	// waits for in-flight sweeps, and a second SIGINT/SIGTERM must
	// force-kill rather than be swallowed by NotifyContext.
	stop()
	log.Printf("simserve: draining (in-flight sweeps finish, new submissions get 503; signal again to force-kill)")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("simserve: shutdown: %v", err)
	}
	srv.Close() // drain + return every checked-out shard worker
	log.Printf("simserve: drained, exiting")
}
