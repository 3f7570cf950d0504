// Package simserver is the simulation service: a net/http JSON front
// end that turns the paper's task-allocation dynamics into an on-demand
// backend. Clients POST a job grid in the versioned wire format
// (internal/wire) and the server fans it out on the multi-simulation
// batch runner (internal/sweeprun), streaming per-cell results back as
// NDJSON — or as the exact CSV cmd/sweep renders — in byte-stable job
// order at any worker count.
//
// Endpoints:
//
//	POST /v1/sweeps            submit a grid; streams results (NDJSON, or
//	                           ?format=csv). ?workers=N bounds the fan-out.
//	POST /v1/bisect            adaptive γ-bisection: refine a γ interval
//	                           until every segment's regret band meets the
//	                           target (see bisect.go).
//	GET  /v1/sweeps/{id}       fetch a completed sweep's summary.
//	GET  /v1/healthz           liveness.
//	GET  /v1/version           wire-format + runtime versions.
//
// Caching: sweeps are keyed by their behavioral hash
// (wire.SemanticSweepHash), so re-submitting an equivalent grid —
// regardless of JSON key order, whitespace, worker count, or which of
// several behaviorally identical schedule spellings was used (a frozen
// snapshot vs. the generative family it froze, Demands vs. a static
// schedule, a degenerate Markov chain vs. its step) — is served from
// cache byte-identically to the fresh response. The X-Sweep-Cache
// header says hit or miss; the finer X-Cache header distinguishes
// hit | miss | coalesced, and GET /v1/metrics counts semantic-alias
// hits (cache hits whose syntactic hash differs from the entry
// creator's).
// Concurrent equivalent submissions coalesce onto one execution. Below
// the sweep cache, each cell's report is kept in the job tier under its
// behavioral job hash, so a new grid that shares cells with an earlier
// sweep or bisect simulates only the cells no one computed yet — with
// the same response bytes.
//
// All handlers share one colony worker pool and one cross-request
// simulation gate sized to GOMAXPROCS; Close drains in-flight sweeps
// and returns every checked-out shard worker (no goroutine leaks — the
// package test asserts it under -race).
package simserver

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"taskalloc"
	"taskalloc/internal/bisect"
	"taskalloc/internal/store"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds each sweep's simulations in flight; <= 0 means
	// GOMAXPROCS. A request's ?workers=N overrides it per submission
	// (never the response bytes — ordering is worker-count invariant).
	Workers int
	// MaxConcurrent bounds simulations in flight across ALL requests
	// (the shared gate); <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// CacheEntries caps the completed-sweep cache; <= 0 means 128.
	// Eviction is FIFO over completed sweeps.
	CacheEntries int
	// MaxBodyBytes caps a submission document's size (the decoder
	// materializes the whole grid); <= 0 means wire.MaxBodyBytes.
	MaxBodyBytes int64
	// MaxJobs caps a single sweep's grid size; <= 0 means 10000.
	MaxJobs int
	// MaxCellRounds caps one cell's horizon — the compute bound a
	// well-formed document could otherwise dodge (a running sweep is
	// deliberately not cancelled on client disconnect, so admission is
	// where compute is bounded); <= 0 means 10,000,000.
	MaxCellRounds int
	// MaxCellAnts caps one cell's colony size (engine state is O(ants)
	// and per-round work is O(ants·k)); <= 0 means 10,000,000.
	MaxCellAnts int
	// CacheBytes caps the cached cells' retained bytes (trajectory
	// CSVs dominate); completed sweeps are evicted FIFO past it.
	// <= 0 means 256 MiB.
	CacheBytes int64
	// MaxBisectEvals caps one bisect request's evaluated γ cells (and
	// is the default when the request leaves max_evals 0); <= 0 means
	// bisect.DefaultMaxEvals.
	MaxBisectEvals int
	// JobCacheEntries caps the memory job tier: job-level results that
	// sweeps and bisects reuse cell by cell, keyed by the behavioral job
	// hash (reports only — a few hundred bytes each); <= 0 means 4096.
	// Eviction is FIFO.
	JobCacheEntries int
	// DataDir enables durability: sweep journals are checkpointed under
	// DataDir/sweeps so a restart can replay completed sweeps and
	// resume interrupted ones (GET /v1/sweeps/{id}?cursor=N), and each
	// bisect search journals its fresh cells there too. Every journal
	// record carries its cell's job-tier key, and the store's key index
	// over committed journals is the job tier's disk level: sweeps and
	// bisects reuse each other's cells across restarts. Empty keeps the
	// service memory-only (the default — no existing behavior changes).
	DataDir string
	// DataBytes caps the disk usage of all journals, sweeps' and bisect
	// searches' alike (least-recently-committed complete journals are
	// evicted past it, their keys with them); <= 0 means 4 GiB.
	DataBytes int64
	// SyncWrites fsyncs every journal append. Off (the default),
	// checkpoints survive a process kill but not a machine crash; on,
	// both, at a large append cost.
	SyncWrites bool
	// Tenants enables bearer-token auth: requests (except healthz,
	// version, and metrics) must carry a configured token, and each
	// tenant gets its own job quota and request rate limit. Empty leaves
	// the server open.
	Tenants []TenantConfig
	// AccessLog, if non-nil, receives one structured JSON line per
	// request (log/slog): method, path, route, status, bytes, duration,
	// a per-request ID, the propagated X-Trace-Id (when present), and
	// the cache disposition. Nil disables request logging.
	AccessLog io.Writer
	// JobDelay artificially sleeps before each freshly computed job (a
	// chaos/test hook — cmd/simserve's -test-job-delay): it makes this
	// backend uniformly slow without touching results, so grid tests can
	// exercise work stealing against a real heterogeneous fleet, and
	// bisect tests can hold a search open. Sweep cells and /v1/bisect
	// cells are delayed alike; cached and journal-replayed cells are
	// not. Zero (the default) disables it.
	JobDelay time.Duration
}

// maxWorkersPerRequest bounds the goroutines one submission's
// ?workers=N can ask sweeprun to spawn (the gate already bounds how
// many run; this bounds parked stacks).
const maxWorkersPerRequest = 256

// Server is the simulation service. Create with New, serve via
// ServeHTTP (it is an http.Handler), and Close to drain.
type Server struct {
	opts Options
	pool *taskalloc.WorkerPool
	gate chan struct{}
	mux  *http.ServeMux

	mu        sync.Mutex
	closed    bool
	inflight  sync.WaitGroup
	cache     map[string]*sweepEntry
	order     []string // insertion order, for FIFO eviction
	cacheSize int64    // retained bytes across completed entries

	// The memory job tier (jobtier.go), keyed by wire.SemanticHash, and
	// the in-flight bisect executions concurrent equivalent requests
	// coalesce onto (keyed by wire.SemanticBisectHash).
	jobCache      map[string]jobResult
	jobOrder      []string // insertion order, for FIFO eviction
	bisectFlights map[string]*bisectFlight

	// store is the durability layer, nil when Options.DataDir is empty:
	// the journal store, whose index is the one record of on-disk sweeps
	// and whose key index is the job tier's disk level.
	store *store.Store

	// auth is the tenant layer, nil when Options.Tenants is empty.
	auth *authState
	// nowFn is the tenant rate limiter's clock, injectable in tests;
	// nil means time.Now.
	nowFn func() time.Time

	// metrics is the telemetry layer (always non-nil; see metrics.go):
	// every counter the server keeps, exported on GET /v1/metrics.
	metrics *serverMetrics
	// accessLog is the structured request logger, nil when
	// Options.AccessLog is nil.
	accessLog *slog.Logger
}

// now is the server's clock (rate limiting only).
func (s *Server) now() time.Time {
	if s.nowFn != nil {
		return s.nowFn()
	}
	return time.Now()
}

// sweepEntry is one sweep's lifecycle: created on first submission,
// filled by the owning request, read by everyone after done closes.
type sweepEntry struct {
	id    string // semantic sweep hash: the cache key and public sweep ID
	synID string // creator's syntactic hash, for semantic-alias accounting
	jobs  int
	done  chan struct{}
	// Written only by the owning request before close(done):
	cells   []cell
	summary sweeprun.Summary
	size    int64 // approximate retained bytes (trajectories dominate)
}

// cell is one completed grid cell — everything any response format
// renders from — plus its job-tier key ("" for a cell replayed from a
// journal written before records carried keys).
type cell struct {
	meta   []string
	rounds int
	report taskalloc.Report
	err    string
	traj   []byte
	key    string
}

// New builds a memory-only Server with a fresh shared worker pool. It
// panics if opts enables durability or tenants and that setup fails
// (bad directory, invalid tenant config) — prefer Open when using
// those options.
func New(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, setting up the durability layer (the journal
// store) and the tenant registry when their options are set. With a
// zero Options it is equivalent to New: memory-only, open to all
// callers.
func Open(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 128
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = wire.MaxBodyBytes
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 10000
	}
	if opts.MaxCellRounds <= 0 {
		opts.MaxCellRounds = 10_000_000
	}
	if opts.MaxCellAnts <= 0 {
		opts.MaxCellAnts = 10_000_000
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 256 << 20
	}
	if opts.MaxBisectEvals <= 0 {
		opts.MaxBisectEvals = bisect.DefaultMaxEvals
	}
	if opts.JobCacheEntries <= 0 {
		opts.JobCacheEntries = 4096
	}
	s := &Server{
		opts:          opts,
		pool:          taskalloc.NewWorkerPool(),
		gate:          make(chan struct{}, opts.MaxConcurrent),
		cache:         make(map[string]*sweepEntry),
		jobCache:      make(map[string]jobResult),
		bisectFlights: make(map[string]*bisectFlight),
	}
	if opts.DataDir != "" {
		if opts.DataBytes <= 0 {
			opts.DataBytes = 4 << 30
		}
		st, err := store.Open(filepath.Join(opts.DataDir, "sweeps"),
			store.Options{MaxBytes: opts.DataBytes, Sync: opts.SyncWrites})
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = st
		s.opts = opts
	}
	s.metrics = newServerMetrics(s)
	if opts.AccessLog != nil {
		s.accessLog = slog.New(slog.NewJSONHandler(opts.AccessLog, nil))
	}
	if len(opts.Tenants) > 0 {
		for i, t := range opts.Tenants {
			if t.Name == "" || t.Token == "" {
				s.pool.Close()
				return nil, fmt.Errorf("simserver: tenant %d needs a name and a token", i)
			}
		}
		s.auth = newAuthState(opts.Tenants, s.metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.drained(s.handleSubmit))
	s.mux.HandleFunc("POST /v1/bisect", s.drained(s.handleBisect))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.drained(s.handleGet))
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler: every request flows through the
// instrumentation wrapper (metrics.go) and then the tenant middleware
// or the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.instrumented(w, r)
}

// drained wraps a handler Close waits for: each request registers in
// flight, and once Close has started it is answered 503 instead.
func (s *Server) drained(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		open := !s.closed
		if open {
			s.inflight.Add(1)
		}
		s.mu.Unlock()
		if !open {
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		defer s.inflight.Done()
		h(w, r)
	}
}

// Close drains the server: new submissions are rejected with 503,
// in-flight sweeps run to completion, and only then is the shared
// worker pool shut down — so every checked-out shard worker set has
// been returned before its goroutines are told to exit. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	if !already {
		s.pool.Close()
	}
}

// lookupOrCreate returns the entry for the semantic id, creating it
// (and becoming the owner, who must run the sweep and close done) when
// absent. The disposition is "miss" for the owner, "hit" when the entry
// was already complete, and "coalesced" when its execution is still in
// flight; non-owners whose syntactic hash differs from the creator's
// count as semantic-alias hits. The owner's hit-or-miss counter is NOT
// charged here: whether a "miss" really executes — or is served from an
// on-disk journal and counts as a hit — is only known after the disk
// check, and the Prometheus counters must stay monotone (no
// reclassifying decrement).
func (s *Server) lookupOrCreate(id, synID string, jobs int) (entry *sweepEntry, disposition string) {
	s.mu.Lock()
	if e, ok := s.cache[id]; ok {
		disposition = "coalesced"
		var counter = s.metrics.sweepCoalesced
		select {
		case <-e.done:
			disposition = "hit"
			counter = s.metrics.sweepHits
		default:
		}
		alias := e.synID != synID
		s.mu.Unlock()
		counter.Inc()
		if alias {
			s.metrics.aliasHits.Inc()
		}
		return e, disposition
	}
	e := &sweepEntry{id: id, synID: synID, jobs: jobs, done: make(chan struct{})}
	s.cache[id] = e
	s.order = append(s.order, id)
	s.evictLocked()
	s.mu.Unlock()
	return e, "miss"
}

// evictLocked drops the oldest completed entries while the cache is
// over its entry-count or retained-bytes budget. In-flight entries are
// never evicted (waiters hold their pointer, and the owner must be
// able to publish); they count 0 bytes until published.
func (s *Server) evictLocked() {
	over := func() bool {
		return len(s.cache) > s.opts.CacheEntries || s.cacheSize > s.opts.CacheBytes
	}
	for i := 0; over() && i < len(s.order); {
		id := s.order[i]
		e, ok := s.cache[id]
		if !ok {
			s.order = append(s.order[:i], s.order[i+1:]...)
			continue
		}
		select {
		case <-e.done:
			delete(s.cache, id)
			s.cacheSize -= e.size
			s.order = append(s.order[:i], s.order[i+1:]...)
		default:
			i++
		}
	}
}

// drop removes a failed submission's placeholder (from the cache AND
// the eviction order, so repeated failures don't grow order without
// bound and a resubmitted id doesn't inherit a stale FIFO position) so
// a corrected resubmission is not welded to the broken one.
func (s *Server) drop(e *sweepEntry) {
	s.mu.Lock()
	delete(s.cache, e.id)
	for i, id := range s.order {
		if id == e.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	close(e.done)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// admit bounds what a grid — a sweep, or a bisect template as a
// one-cell grid — can buy before anything is keyed or run (running
// sweeps are not cancelled on client disconnect, so this is where CPU
// and decode memory are bounded); it returns the status to reject with.
func (s *Server) admit(jobs []wire.Job) (int, error) {
	if len(jobs) > s.opts.MaxJobs {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("grid has %d jobs, limit %d", len(jobs), s.opts.MaxJobs)
	}
	for i, j := range jobs {
		if j.Rounds < 0 || j.Rounds > s.opts.MaxCellRounds {
			return http.StatusBadRequest,
				fmt.Errorf("jobs[%d]: rounds %d outside [0, %d]", i, j.Rounds, s.opts.MaxCellRounds)
		}
		if j.Config.Ants > s.opts.MaxCellAnts {
			return http.StatusBadRequest,
				fmt.Errorf("jobs[%d]: ants %d over limit %d", i, j.Config.Ants, s.opts.MaxCellAnts)
		}
	}
	if err := wire.CheckFrozenHorizons(jobs); err != nil {
		return wire.DecodeStatus(err), err
	}
	return 0, nil
}

// requestWorkers is a request's fan-out bound: its ?workers=N, or the
// server default; a bad value is answered 400 (ok false). A large N is
// clamped, not rejected: the bytes are worker-count invariant and the
// gate bounds running simulations, so the clamp only bounds the parked
// goroutine stacks a huge request could spawn.
func (s *Server) requestWorkers(w http.ResponseWriter, r *http.Request) (workers int, ok bool) {
	v := r.URL.Query().Get("workers")
	if v == "" {
		return s.opts.Workers, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		httpError(w, http.StatusBadRequest, "bad workers %q", v)
		return 0, false
	}
	return min(n, maxWorkersPerRequest), true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission stage: everything from here to the cache lookup —
	// decode, bounds, hashing, quota. Observed only for admitted
	// submissions (rejections show up in the per-route status counters).
	admissionStart := time.Now()

	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "csv" {
		httpError(w, http.StatusBadRequest, "unknown format %q (want ndjson or csv)", format)
		return
	}
	workers, ok := s.requestWorkers(w, r)
	if !ok {
		return
	}

	sweep, err := wire.DecodeSweep(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	if status, err := s.admit(sweep.Jobs); err != nil {
		httpError(w, status, "%v", err)
		return
	}
	// The public sweep ID is the behavioral hash: equivalent spellings
	// share one ID, one cache entry, and byte-identical bodies. The
	// syntactic hash is kept per entry only to count alias hits.
	synID, err := wire.SweepHash(sweep)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One normalization pass yields the sweep ID and every job's
	// job-tier key.
	id, keys, err := wire.SemanticSweepKeys(sweep)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The tenant job quota is charged at admission, whatever the cache
	// disposition ends up being (a hit still consumed a submission).
	if t := tenantFrom(r); t != nil && !t.chargeJobs(len(sweep.Jobs)) {
		writeErrorBody(w, http.StatusForbidden, wire.ErrorBody{
			Error: fmt.Sprintf("job quota exceeded (%d jobs over tenant limit)", len(sweep.Jobs)),
			Kind:  "quota",
		})
		return
	}

	s.metrics.stageAdmission.ObserveSince(admissionStart)

	lookupStart := time.Now()
	entry, disposition := s.lookupOrCreate(id, synID, len(sweep.Jobs))
	s.metrics.stageCacheLookup.ObserveSince(lookupStart)
	if disposition != "miss" {
		// An equivalent grid already ran (or is running): coalesce onto
		// its result and replay it byte-identically.
		select {
		case <-entry.done:
		case <-r.Context().Done():
			return
		}
		if entry.cells == nil {
			// The owning submission failed validation after we joined.
			httpError(w, http.StatusBadRequest, "sweep %s failed validation; resubmit", id)
			return
		}
		s.replay(w, entry, format, disposition, 0)
		return
	}

	// We own the entry. Until published, any exit (validation error,
	// panic) must drop the placeholder so coalesced waiters unblock and
	// a corrected resubmission is not welded to the broken one.
	published := false
	defer func() {
		if !published {
			s.drop(entry)
		}
	}()

	// A journal from a previous process lifetime serves (or resumes)
	// this submission byte-identically to its creator's run;
	// serveFromDisk charges the hit/miss counter for the paths it
	// handles.
	if s.serveFromDisk(w, entry, synID, format, 0, workers) {
		published = true // serveFromDisk publishes or drops the entry itself
		return
	}
	// No usable journal: this submission executes fresh — the miss the
	// lookup provisionally was is now definite.
	s.metrics.sweepMisses.Inc()

	g, err := buildRunnable(sweep, keys)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := s.createJournal(id, synID, sweep)
	s.streamOwned(w, entry, g, nil, j, format, "miss", 0, workers)
	published = true
}

// publish completes an entry: records its cells and summary, charges
// its retained bytes against the cache budget (evicting older entries
// as needed), stores every keyed cell in the memory job tier — fresh,
// reused, or replayed from a journal alike, so a sweep served from disk
// after a restart warms the bisects that follow it — and releases
// every waiter. The field writes happen-before close(done), so waiters
// read them race-free.
func (s *Server) publish(e *sweepEntry, cells []cell, sum sweeprun.Summary) {
	var size int64
	for _, c := range cells {
		size += int64(len(c.traj)) + int64(len(c.err)) + 256 // report + struct overhead
		for _, m := range c.meta {
			size += int64(len(m))
		}
	}
	s.mu.Lock()
	for _, c := range cells {
		if c.key != "" {
			s.storeJobLocked(c.key, jobResult{report: c.report, err: c.err})
		}
	}
	e.cells = cells
	e.summary = sum
	e.size = size
	if _, live := s.cache[e.id]; live {
		s.cacheSize += size
		s.evictLocked()
	}
	s.mu.Unlock()
	close(e.done)
}

// setStreamHeaders stamps the response metadata shared by fresh and
// cached replies. Bodies are byte-identical across the dispositions;
// only these headers differ. X-Cache carries the full disposition
// (hit | miss | coalesced); X-Sweep-Cache keeps its original binary
// contract (miss only for the executing owner) for existing clients.
func (s *Server) setStreamHeaders(w http.ResponseWriter, format, id, disposition string) {
	w.Header().Set("Content-Type", wire.ContentType(format))
	w.Header().Set("X-Sweep-Id", id)
	w.Header().Set("X-Cache", disposition)
	if disposition == "miss" {
		w.Header().Set("X-Sweep-Cache", "miss")
	} else {
		w.Header().Set("X-Sweep-Cache", "hit")
	}
}

// streamOwned executes an owned sweep (executeOwned) and streams it as
// it runs — a fresh POST (disposition miss) and a journal resume
// (resume) alike: the headers, flushed at once, then every cell from
// cursor on, each flushed and timed in the render stage.
func (s *Server) streamOwned(w http.ResponseWriter, entry *sweepEntry, g grid, prefix []cell, j *store.Journal, format, disposition string, cursor, workers int) {
	s.setStreamHeaders(w, format, entry.id, disposition)
	render := newBody(w, format, entry.id, len(g.jobs), cursor)
	flusher, _ := w.(http.Flusher)
	// The headers and the stream header leave before any cell is
	// computed: a caller (the grid coordinator backing up a straggler)
	// learns at admission that this request is computing, not replaying.
	if flusher != nil {
		flusher.Flush()
	}
	s.executeOwned(entry, g, prefix, j, workers, func(i int, c cell) {
		if i < cursor {
			return
		}
		start := time.Now()
		render(i, c)
		if flusher != nil {
			flusher.Flush()
		}
		s.metrics.stageRender.ObserveSince(start)
	})
}

// replay renders a completed entry's cells from cursor on: memory hits,
// coalesced waiters, complete-journal replays, and cursored GETs alike.
// A cursor past the end is a 400. Replays are not timed in the render
// stage, which covers cells streamed while their sweep executes.
func (s *Server) replay(w http.ResponseWriter, e *sweepEntry, format, disposition string, cursor int) {
	if cursor > len(e.cells) {
		httpError(w, http.StatusBadRequest,
			"cursor %d past end of sweep (%d jobs)", cursor, len(e.cells))
		return
	}
	s.setStreamHeaders(w, format, e.id, disposition)
	render := newBody(w, format, e.id, e.jobs, cursor)
	for i := cursor; i < len(e.cells); i++ {
		render(i, e.cells[i])
	}
}

// grid is a batch of cells ready for runCells: its sweeprun jobs, the
// trajectory recorder of every job that asked for one (nil elsewhere),
// and every job's job-tier key (for a sweep, wire.SemanticSweepKeys).
type grid struct {
	jobs []sweeprun.Job
	recs []*wire.TrajectoryRecorder
	keys []string
	// decode, when set, decodes the listed cells on demand, and jobs
	// holds only each cell's Meta and Rounds: a bisect round decodes
	// just the cells the job tier cannot serve. Sweeps decode at
	// admission (buildRunnable) and leave it nil.
	decode func(idx []int) ([]sweeprun.Job, error)
}

// buildRunnable decodes the wire grid into sweeprun jobs (via
// wire.ToJobs, which shares identical frozen snapshots across cells),
// attaching a trajectory recorder to every job that asked for one; keys
// are the grid's job-tier keys, in job order.
func buildRunnable(sweep wire.Sweep, keys []string) (grid, error) {
	jobs, err := wire.ToJobs(sweep)
	if err != nil {
		return grid{}, err
	}
	recs := make([]*wire.TrajectoryRecorder, len(sweep.Jobs))
	for i, wj := range sweep.Jobs {
		if wj.Trajectory {
			rec := wire.NewTrajectoryRecorder(wj.Config.Tasks())
			recs[i] = rec
			jobs[i].Observe = func(sim *taskalloc.Simulation) taskalloc.Observer {
				return rec.Observer(sim)
			}
		}
	}
	return grid{jobs: jobs, recs: recs, keys: keys}, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if q := r.URL.Query(); q.Has("cursor") || q.Has("format") {
		// Stream mode: replay the response body from a cursor — how a
		// client reconnects to a half-streamed sweep after a restart.
		s.handleGetStream(w, r, id)
		return
	}
	s.mu.Lock()
	e := s.cache[id]
	var jobsNow int
	if e != nil {
		jobsNow = e.jobs
	}
	s.mu.Unlock()
	if e == nil {
		if exists, _ := s.hasJournal(id); exists {
			// On disk but not loaded: a cursored GET (or an equivalent
			// POST) will replay or resume it.
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(wire.SweepStatus{ID: id, Status: "resumable"})
			return
		}
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	select {
	case <-e.done:
	default:
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(wire.SweepStatus{ID: e.id, Status: "running", Jobs: jobsNow})
		return
	}
	if e.cells == nil {
		httpError(w, http.StatusNotFound, "sweep %q failed validation", id)
		return
	}
	status := wire.SweepStatus{
		ID:      e.id,
		Status:  "done",
		Jobs:    e.jobs,
		Failed:  e.summary.Failed,
		Summary: &e.summary,
	}
	for i, c := range e.cells {
		status.Results = append(status.Results, resultLine(i, c, false))
	}
	_ = json.NewEncoder(w).Encode(status)
}

// handleGetStream serves GET /v1/sweeps/{id}?cursor=N[&format=...]:
// the response body from cell N on, byte-identical to the tail of an
// uninterrupted POST response (for NDJSON, preceded by the header line
// a resuming client drops; for CSV, the header row only at cursor 0).
// A sweep that lives only in a journal is loaded — or, if its journal
// is incomplete, resumed: the checkpointed prefix replays from disk
// and the remaining cells execute, streaming as they complete.
func (s *Server) handleGetStream(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "csv" {
		httpError(w, http.StatusBadRequest, "unknown format %q (want ndjson or csv)", format)
		return
	}
	cursor := 0
	if v := q.Get("cursor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad cursor %q", v)
			return
		}
		cursor = n
	}

	// Memory first; fall back to adopting the on-disk journal (the
	// adopter becomes the entry owner, so concurrent readers coalesce
	// instead of double-resuming). The store is asked outside mu; a
	// journal evicted in between makes serveFromDisk decline below.
	onDisk, _ := s.hasJournal(id)
	s.mu.Lock()
	e := s.cache[id]
	owner := false
	if e == nil && onDisk {
		e = &sweepEntry{id: id, done: make(chan struct{})}
		s.cache[id] = e
		s.order = append(s.order, id)
		owner = true
	}
	s.mu.Unlock()
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if owner {
		if s.serveFromDisk(w, e, "", format, cursor, s.opts.Workers) {
			return
		}
		// The journal vanished (evicted) or was undecodable.
		s.drop(e)
		httpError(w, http.StatusNotFound, "sweep %q is not recoverable", id)
		return
	}
	select {
	case <-e.done:
	case <-r.Context().Done():
		return
	}
	if e.cells == nil {
		httpError(w, http.StatusNotFound, "sweep %q failed validation", id)
		return
	}
	s.replay(w, e, format, "hit", cursor)
}

// handleHealthz answers liveness only: the server's counters are
// exported once, on GET /v1/metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"status":"ok"}`+"\n")
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{
		"wire": wire.V1,
		"go":   runtime.Version(),
	})
}

// resultLine renders one cell as a wire.Result.
func resultLine(i int, c cell, withTrajectory bool) wire.Result {
	out := wire.Result{Index: i, Meta: c.meta, Err: c.err}
	if c.err == "" {
		rep := c.report
		out.Report = &rep
	}
	if withTrajectory && len(c.traj) > 0 {
		out.Trajectory = string(c.traj)
	}
	return out
}
