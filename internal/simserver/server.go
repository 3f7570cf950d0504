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
// cache byte-identically to the fresh response. The X-Cache header says
// hit | miss | coalesced | resume, and GET /v1/metrics counts
// semantic-alias hits (cache hits whose syntactic hash differs from the
// entry creator's).
// Concurrent equivalent submissions coalesce onto one execution. Each
// sweep and bisect search is an entry of the memory tier, which keeps a
// key index over its entries' cells under each cell's behavioral job
// hash, so a new grid that shares cells with a held sweep or search
// simulates only the cells no one computed yet — with the same bytes.
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
	"taskalloc/internal/store"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Options tunes a Server. What one request may buy is not among them:
// the admission bounds are constants of the wire format (wire.Admit,
// wire.BisectRequest.Validate), the same on every backend and the grid
// coordinator.
type Options struct {
	// Workers bounds each sweep's simulations in flight; <= 0 means
	// GOMAXPROCS. A request's ?workers=N overrides it per submission
	// (never the response bytes — ordering is worker-count invariant).
	Workers int
	// MaxConcurrent bounds simulations in flight across ALL requests
	// (the shared gate); <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// CacheEntries caps the memory tier's entries, sweeps' and bisect
	// searches'; <= 0 means 128. Eviction is FIFO over completed entries,
	// and a cell is reusable from memory while a held entry holds it.
	CacheEntries int
	// CacheBytes caps the bytes charged to the memory tier's entries
	// (trajectory CSVs dominate); completed entries are evicted FIFO
	// past it. <= 0 means 256 MiB.
	CacheBytes int64
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

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	// The memory tier: its entries, their insertion order (for FIFO
	// eviction) and bytes, and the key index over their cells.
	entries   map[string]*entry
	order     []string
	cacheSize int64
	index     map[string]*held

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

// entry is one entry of the memory tier: a sweep under its sweep ID, or
// a bisect search under its journal's id. The request that creates it
// owns it, runs it and closes done; requests that find it in flight
// wait and render the owner's result. A completed sweep answers later
// requests too; a completed search only holds cells.
type entry struct {
	id    string
	synID string // a sweep creator's syntactic hash, for semantic-alias accounting
	jobs  int
	done  chan struct{}
	keys  []string // the distinct keys it holds in the index (under s.mu)
	size  int64    // the bytes it is charged (under s.mu)
	// Written only by the owner before close(done): a sweep's cells (nil
	// if the owner failed) and summary, or a search's response or error.
	cells   []cell
	summary sweeprun.Summary
	resp    *wire.BisectResponse
	err     error
}

// completed reports whether e's owner has finished.
func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
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
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 256 << 20
	}
	s := &Server{
		opts:    opts,
		pool:    taskalloc.NewWorkerPool(),
		gate:    make(chan struct{}, opts.MaxConcurrent),
		entries: make(map[string]*entry),
		index:   make(map[string]*held),
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
func (s *Server) lookupOrCreate(id, synID string, jobs int) (e *entry, disposition string) {
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		disposition, counter := "coalesced", s.metrics.sweepCoalesced
		if e.completed() {
			disposition, counter = "hit", s.metrics.sweepHits
		}
		alias := e.synID != synID
		s.mu.Unlock()
		counter.Inc()
		if alias {
			s.metrics.aliasHits.Inc()
		}
		return e, disposition
	}
	e = &entry{id: id, synID: synID, jobs: jobs, done: make(chan struct{})}
	s.addLocked(e)
	s.mu.Unlock()
	return e, "miss"
}

// addLocked adds a new entry at the tail of the FIFO order and evicts
// past the budgets. Caller holds s.mu.
func (s *Server) addLocked(e *entry) {
	s.entries[e.id] = e
	s.order = append(s.order, e.id)
	s.evictLocked()
}

// evictLocked drops the oldest completed entries, and their holds,
// while the table is over its entry-count or byte budget. In-flight
// entries are never evicted: waiters hold their pointer, and the owner
// must be able to publish. Caller holds s.mu.
func (s *Server) evictLocked() {
	for i := 0; (len(s.entries) > s.opts.CacheEntries || s.cacheSize > s.opts.CacheBytes) && i < len(s.order); {
		e := s.entries[s.order[i]]
		if !e.completed() {
			i++
			continue
		}
		delete(s.entries, e.id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.releaseLocked(e)
	}
}

// drop removes an owner's entry, and its holds, on any exit that yields
// no result (a failed validation or search, a panic) and releases its
// waiters, so a corrected resubmission is not welded to the broken one.
func (s *Server) drop(e *entry) {
	s.mu.Lock()
	delete(s.entries, e.id)
	for i, id := range s.order {
		if id == e.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.releaseLocked(e)
	s.mu.Unlock()
	close(e.done)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// chargeQuota charges n jobs against the request's tenant quota, at
// admission and whatever the cache disposition ends up being (a hit
// still consumed a submission); false when it answered the quota 403.
func chargeQuota(w http.ResponseWriter, r *http.Request, n int) bool {
	if t := tenantFrom(r); t != nil && !t.chargeJobs(n) {
		writeErrorBody(w, http.StatusForbidden, wire.ErrorBody{
			Error: fmt.Sprintf("job quota exceeded (%d jobs over tenant limit)", n),
			Kind:  "quota",
		})
		return false
	}
	return true
}

// requestQuery reads a POST's query (wire.ParseQuery), answering a bad
// one 400 (ok false); workers defaults to the server's. A large N is
// clamped, not rejected: the bytes are worker-count invariant and the
// gate bounds running simulations, so the clamp only bounds the parked
// goroutine stacks a huge request could spawn.
func (s *Server) requestQuery(w http.ResponseWriter, r *http.Request, sweep bool) (format string, workers int, ok bool) {
	format, workers, err := wire.ParseQuery(r.URL.Query(), sweep)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return "", 0, false
	}
	if workers == 0 {
		return format, s.opts.Workers, true
	}
	return format, min(workers, maxWorkersPerRequest), true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission stage: everything from here to the cache lookup —
	// decode, bounds, hashing, quota. Observed only for admitted
	// submissions (rejections show up in the per-route status counters).
	admissionStart := time.Now()

	format, workers, ok := s.requestQuery(w, r, true)
	if !ok {
		return
	}
	// Admission decodes every config, so a document that does not
	// decode is rejected before it is keyed, charged or looked up.
	sweep, err := wire.DecodeSweep(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err == nil {
		err = wire.Admit(sweep.Jobs)
	}
	if err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
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

	if !chargeQuota(w, r, len(sweep.Jobs)) {
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

	j := s.createJournal(id, synID, sweep)
	s.streamOwned(w, entry, grid{jobs: sweep.Jobs, keys: keys}, nil, j, format, "miss", 0, workers)
	published = true
}

// publish completes a sweep entry: records its cells and summary, makes
// it hold every keyed cell — fresh, reused, or replayed from a journal
// alike, so a sweep served from disk after a restart warms the bisects
// that follow it — and releases every waiter. The field writes
// happen-before close(done), so waiters read them race-free.
func (s *Server) publish(e *entry, cells []cell, sum sweeprun.Summary) {
	s.mu.Lock()
	e.cells = cells
	e.summary = sum
	s.holdLocked(e, cells)
	s.mu.Unlock()
	close(e.done)
}

// setStreamHeaders stamps the response metadata shared by fresh and
// cached replies. Bodies are byte-identical across the dispositions;
// only X-Cache (hit | miss | coalesced | resume) differs.
func (s *Server) setStreamHeaders(w http.ResponseWriter, format, id, disposition string) {
	w.Header().Set("Content-Type", wire.ContentType(format))
	w.Header().Set("X-Sweep-Id", id)
	w.Header().Set("X-Cache", disposition)
}

// streamOwned executes an owned sweep (executeOwned) and streams it as
// it runs — a fresh POST (disposition miss) and a journal resume
// (resume) alike: the headers, flushed at once, then every cell from
// cursor on, each flushed and timed in the render stage.
func (s *Server) streamOwned(w http.ResponseWriter, entry *entry, g grid, prefix []cell, j *store.Journal, format, disposition string, cursor, workers int) {
	s.setStreamHeaders(w, format, entry.id, disposition)
	render := newBody(w, format, entry.id, len(g.jobs), cursor)
	flusher, _ := w.(http.Flusher)
	// The headers and the stream header leave before any cell is
	// computed: a caller (the grid coordinator backing up a straggler)
	// learns at admission that this request is computing, not replaying.
	if flusher != nil {
		flusher.Flush()
	}
	err := s.executeOwned(entry, g, prefix, j, workers, func(i int, c cell) {
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
	if err != nil {
		// Admission decoded the document, so this cannot happen; if it
		// does, abort the response, as the grid coordinator does (the
		// owner's deferred drop releases the entry).
		panic(http.ErrAbortHandler)
	}
}

// replay renders a completed entry's cells from cursor on: memory hits,
// coalesced waiters, complete-journal replays, and cursored GETs alike.
// A cursor past the end is a 400. Replays are not timed in the render
// stage, which covers cells streamed while their sweep executes.
func (s *Server) replay(w http.ResponseWriter, e *entry, format, disposition string, cursor int) {
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

// grid is a batch of cells for runCells: its wire jobs and every job's
// job-tier key (for a sweep, wire.SemanticSweepKeys).
type grid struct {
	jobs []wire.Job
	keys []string
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if len(id) != sweepIDLen { // a search's entry or journal, or no sweep's
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if q := r.URL.Query(); q.Has("cursor") || q.Has("format") {
		// Stream mode: replay the response body from a cursor — how a
		// client reconnects to a half-streamed sweep after a restart.
		s.handleGetStream(w, r, id)
		return
	}
	s.mu.Lock()
	e := s.entries[id]
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
	if !e.completed() {
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
	e := s.entries[id]
	owner := false
	if e == nil && onDisk {
		e = &entry{id: id, done: make(chan struct{})}
		s.addLocked(e)
		owner = true
	}
	s.mu.Unlock()
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if owner {
		served := false
		defer func() {
			if !served {
				s.drop(e)
			}
		}()
		if served = s.serveFromDisk(w, e, "", format, cursor, s.opts.Workers); !served {
			// The journal vanished (evicted) or was undecodable.
			httpError(w, http.StatusNotFound, "sweep %q is not recoverable", id)
		}
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
