// Package gridcoord is the multi-host grid coordinator: it shards one
// wire-format sweep across several simulation-service backends
// (cmd/simserve instances) by canonical job-hash range, streams each
// backend's NDJSON response through the typed client, and merges the
// per-backend streams into one output that is byte-identical to the
// same sweep run on a single host — at any backend count, in both the
// NDJSON and CSV formats.
//
// Placement: the initial partition assigns job i to the backend whose
// equal slice of the 64-bit hash space contains the leading bits of
// the job's result key — the trajectory-cleared wire.SemanticHash that
// wire.SemanticSweepKeys returns with the sweep ID, in the one pass
// that also names the stream header. Under that behavioral hash,
// equivalent spellings of one job (a frozen snapshot and its
// generative schedule, say) collapse to the same key, and so do a job
// and its trajectory-streaming twin, which produce the same Report.
// The assignment is a pure function of (job behavior, backend count),
// so a Coordinator carries no placement state from one run to the next
// and a re-submitted grid reaches the backends whose caches hold it.
// Each backend's range is split into chunks that its worker streams in
// range order; a worker that drains its own queue steals pending
// chunks from the most-loaded peer's tail, which is how a slow backend
// sheds load. Stealing moves only jobs that have not started
// streaming.
//
// Backups: a worker with nothing left to claim re-runs ("backs up") a
// chunk that another backend is still computing — MapReduce's backup
// tasks, which take a straggler off the critical path once the queues
// are empty. Only a chunk whose backend answered X-Cache: miss is
// backed up (a hit, coalesced or resumed stream is a replay), each at
// most once, the one with the most unmerged jobs first. Both copies
// stream the same sub-sweep; the merger keeps each job's first
// delivery, and the copy whose stream ends cleanly first cancels its
// twin, which is superseded (ErrSuperseded), not failed. A job may thus
// run on two backends but is merged exactly once, and the merged output
// is byte-identical at any steal or backup schedule: the collector
// orders results by global job index, never by arrival.
//
// Failure handling: when a backend dies mid-chunk (transport error,
// truncated stream), the chunk's unmerged jobs are re-queued on the
// next surviving backend, bounded by a per-job attempt budget — unless
// the chunk's twin is still streaming, in which case the twin carries
// it. The dead backend's pending chunks redistribute through the
// stealing path at no attempt cost. Results already merged are kept,
// and the merged order never depends on timing, so output bytes are
// identical whether or not a retry happened. Rejections (HTTP 4xx
// other than 429) are not retried: a backend that rejects a sub-sweep
// would reject it identically everywhere.
//
// Admission: Run, Bisect and Handler apply the backends' admission
// contract (wire.Admit, wire.BisectRequest.Validate, which decode every
// config) before they key, write or send anything, and Handler reads
// the query as a backend does (wire.ParseQuery), so a document a
// backend would reject gets that backend's status and message. A run
// that fails after Handler has sent its headers, on the backends' side,
// aborts the response instead of ending it.
//
// Adaptive grids: Bisect runs the shared search (internal/bisect) on
// the coordinator and dispatches each round's keyed γ cells through the
// same scheduler as a static plan: each cell goes to the owner of its
// result key, never stolen, split across POSTs only as their encoded
// size requires — the search path is deterministic, so a repeat request
// replays every sub-sweep from the backends' sweep caches.
//
// Streaming: the merged body goes out as it forms. The stream header
// (or CSV header row) is written before any backend is called, and
// each result once every result before it has been delivered. When
// Run's writer is an http.Flusher (Handler passes its
// http.ResponseWriter), each of those writes is flushed to the client
// at once instead of waiting in net/http's response buffers.
//
// Status: Run records the status of each run it completes from its own
// merge — the merged results with trajectories dropped, summarized by
// sweeprun.Summarize, the aggregation a single host runs — so
// SweepStatus answers the single-host GET /v1/sweeps/{id} for the most
// recent runs without calling a backend: after a failover, after the
// backends evicted the chunks, or with every backend down. Handler
// serves sweeps, bisects and status over HTTP.
package gridcoord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taskalloc/internal/obs"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Format selects the merged output rendering.
type Format string

// The two merged output formats. Both are byte-identical to the same
// format served by a single backend for the whole sweep.
const (
	FormatNDJSON Format = "ndjson"
	FormatCSV    Format = "csv"
)

// Options configures a Coordinator.
type Options struct {
	// Backends are the simulation-service base URLs (e.g.
	// "http://127.0.0.1:8080"). Their order defines the hash-range
	// assignment, so it must be identical across submissions for the
	// backend caches to stay warm.
	Backends []string
	// Workers is the per-backend ?workers override (0 = backend
	// default). Never changes the merged bytes.
	Workers int
	// Attempts is the per-job attempt budget across retries; <= 0
	// means 3. A job that fails its last attempt fails the whole run
	// (partial output would silently diverge from a single-host run).
	Attempts int
	// StealChunk is the work-stealing granularity in jobs: each
	// backend's range is split into chunks of this size, and idle
	// backends steal pending chunks from the most-loaded peer. 0 picks
	// a size automatically (about a quarter of the mean range, at least
	// 1); negative disables stealing and backups entirely — each range
	// streams as one static chunk, the pre-adaptive behavior.
	StealChunk int
	// StallTimeout aborts a backend stream that delivers no result for
	// this long (the transport alone cannot detect a peer that accepts
	// the request and then hangs); the chunk's undelivered jobs
	// re-dispatch under the attempt budget. 0 disables the watchdog.
	StallTimeout time.Duration
	// Observe, if non-nil, receives progress events (results delivered,
	// chunks stolen or backed up, backends lost, ranges re-dispatched),
	// for sweeps and bisect rounds alike. Called from
	// coordinator goroutines; it must be safe for concurrent use.
	Observe func(Event)
	// Token is the tenant bearer token sent to every backend (each
	// backend call authenticates as the coordinator's tenant). Empty
	// for open backends.
	Token string
	// Registry, if non-nil, receives the coordinator's metric families
	// (run counts, steals, backups, redispatches, lost backends, and
	// per-backend delivered jobs and stream latency) for the caller to
	// expose — cmd/simgrid serves it on -metrics-addr. Families register
	// at New, so use one Registry per Coordinator. Nil records to a
	// private, unexposed registry.
	Registry *obs.Registry
}

// EventKind discriminates Event.
type EventKind int

// The event kinds Observe receives.
const (
	// EventResult: one job's result was delivered by a backend (before
	// merge emission). Only a job's first delivery counts: a backup's
	// duplicate of a job its twin already delivered fires nothing.
	EventResult EventKind = iota
	// EventBackendLost: a backend failed; the failed chunk's
	// undelivered jobs will be re-dispatched if the attempt budget
	// allows.
	EventBackendLost
	// EventRedispatch: a failed chunk's remaining jobs were queued on a
	// surviving backend.
	EventRedispatch
	// EventBackendDone: one backend sub-sweep stream ended. Emitted
	// exactly once per launched stream — success or failure, even when
	// the backend died before delivering its first job — with the
	// delivered count, the stream's wall-clock duration, and the
	// failure (nil on success, ErrSuperseded for a stream cancelled
	// because its twin finished the chunk first).
	EventBackendDone
	// EventSteal: an idle backend claimed a pending chunk from another
	// backend's queue (From) before streaming it itself.
	EventSteal
	// EventBackup: an idle backend started re-running a chunk that
	// another backend (From) is still computing.
	EventBackup
)

// ErrSuperseded is the Err of an EventBackendDone whose stream lost a
// backup race: its twin — the same chunk on another backend — ended
// cleanly first, so the coordinator cancelled this stream. The backend
// is not counted lost and nothing is re-queued.
var ErrSuperseded = errors.New("gridcoord: stream superseded by its twin")

// Event is one coordinator progress notification.
type Event struct {
	// Kind says what happened.
	Kind EventKind
	// Backend is the backend index the event concerns.
	Backend int
	// From is the backend index a stolen chunk was queued on
	// (EventSteal), or the backend still computing a backed-up chunk
	// (EventBackup).
	From int
	// Index is the delivered job's global index (EventResult only); for
	// a bisect round, the cell's position in the round's γ batch.
	Index int
	// Jobs counts the jobs involved (EventBackendLost: undelivered;
	// EventRedispatch: re-queued; EventSteal: stolen; EventBackup: the
	// chunk re-run; EventBackendDone: delivered).
	Jobs int
	// Elapsed is the stream's wall-clock duration (EventBackendDone
	// only).
	Elapsed time.Duration
	// Err is the backend failure (EventBackendLost, and EventBackendDone
	// for a stream that ended in failure).
	Err error
}

// Stats summarizes one Run.
type Stats struct {
	// TraceID is the run's trace identifier, sent to every backend as
	// X-Trace-Id — grep it in the backends' request logs to follow one
	// sweep across the grid.
	TraceID string
	// JobsPerBackend is the initial hash-range assignment size per
	// backend (before any stealing).
	JobsPerBackend []int
	// Delivered counts the job results each backend delivered to the
	// merge — a job's first copy only — summing to the sweep size on
	// success; redistributed under stealing, backups and failover.
	Delivered []int
	// Steals counts chunks claimed across backend queues.
	Steals int
	// Backups counts in-flight chunks an idle backend re-ran.
	Backups int
	// Retried counts job re-submissions after backend failures.
	Retried int
	// BackendsLost counts backends marked dead during the run.
	BackendsLost int
}

// Coordinator shards sweeps across a fixed backend set. It is safe for
// concurrent use; each Run tracks backend health independently.
type Coordinator struct {
	opts    Options
	clients []*client.Client
	metrics *gridMetrics

	// rmu guards the completed-run registry SweepStatus serves from.
	rmu      sync.Mutex
	runs     map[string]*wire.SweepStatus
	runOrder []string
}

// New builds a Coordinator. At least one backend is required.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("gridcoord: need at least one backend")
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	c := &Coordinator{opts: opts, runs: make(map[string]*wire.SweepStatus)}
	for _, b := range opts.Backends {
		cl := client.New(b, nil)
		if opts.Token != "" {
			cl = cl.WithToken(opts.Token)
		}
		c.clients = append(c.clients, cl)
	}
	c.metrics = newGridMetrics(opts.Registry, len(c.clients))
	return c, nil
}

// Partition assigns each job to one of n backends by result-key range:
// keys[i] is job i's result key, as wire.SemanticSweepKeys returns it
// (the SemanticHash of the job with Trajectory cleared), and its 64-bit
// prefix falls into one of n equal slices of the hash space. The
// assignment is a pure function of (job's behavior, n) — re-submitting
// the same grid, any behaviorally equivalent spelling of it, or the
// same jobs with trajectories switched on or off, to the same backend
// count reproduces it exactly, so equivalent jobs land on the backend
// that already holds the result.
func Partition(keys []string, n int) ([][]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("gridcoord: partition needs n >= 1, got %d", n)
	}
	out := make([][]int, n)
	for i, key := range keys {
		b, err := rangeIndex(key, n)
		if err != nil {
			return nil, fmt.Errorf("gridcoord: keys[%d]: %w", i, err)
		}
		out[b] = append(out[b], i)
	}
	return out, nil
}

// rangeIndex maps a canonical hash's 64-bit prefix to one of n equal
// slices of the hash space.
func rangeIndex(hash string, n int) (int, error) {
	if n <= 1 {
		return 0, nil
	}
	if len(hash) < 16 {
		return 0, fmt.Errorf("hash %q is shorter than 16 hex digits", hash)
	}
	v, err := strconv.ParseUint(hash[:16], 16, 64)
	if err != nil {
		return 0, fmt.Errorf("parse hash: %w", err)
	}
	return int(v / (math.MaxUint64/uint64(n) + 1)), nil
}

// observe fires the Observe hook, if any.
func (c *Coordinator) observe(ev Event) {
	if c.opts.Observe != nil {
		c.opts.Observe(ev)
	}
}

// chunkSizeFor picks the stealing granularity: the configured size, or
// about a quarter of the mean per-backend range (at least 1) — small
// enough that a 10×-slow backend sheds most of its range, large enough
// that per-chunk HTTP overhead stays negligible.
func (c *Coordinator) chunkSizeFor(jobs int) int {
	if c.opts.StealChunk > 0 {
		return c.opts.StealChunk
	}
	size := (jobs + 4*len(c.clients) - 1) / (4 * len(c.clients))
	if size < 1 {
		size = 1
	}
	return size
}

// Run shards sweep across the backends, merges the streams, and writes
// the rendered output to w. The bytes written are identical to the
// same sweep POSTed to one backend with the same format — the
// coordinator recomputes the semantic sweep hash (the service's public
// sweep ID) for the stream header, re-indexes each backend's local
// results to their global positions, and emits in strict job order —
// whatever steal, backup or failover path the run takes. The header
// is written before any backend is called and each result as soon as
// its prefix is complete, each write flushed when w is an
// http.Flusher. A completed run's status is then served by
// SweepStatus. A sweep a backend would not admit is rejected, as a
// backend rejects it, before anything is keyed or written (admitKeys).
func (c *Coordinator) Run(ctx context.Context, sweep wire.Sweep, format Format, w io.Writer) (Stats, error) {
	if format != FormatNDJSON && format != FormatCSV {
		return Stats{}, fmt.Errorf("gridcoord: unknown format %q", format)
	}
	id, keys, err := admitKeys(sweep)
	if err != nil {
		return Stats{}, err
	}
	return c.run(ctx, sweep, id, keys, format, w)
}

// admitKeys admits sweep as a backend does (wire.Admit; the error wraps
// wire.ErrAdmission), then keys it in one pass (wire.SemanticSweepKeys)
// that names the sweep and places its jobs.
func admitKeys(sweep wire.Sweep) (id string, keys []string, err error) {
	if err := wire.Admit(sweep.Jobs); err != nil {
		return "", nil, err
	}
	return wire.SemanticSweepKeys(sweep)
}

// run is Run for a sweep admitted and keyed by admitKeys: id is its
// semantic sweep hash (the HTTP handler sends it as X-Sweep-Id before
// the body) and keys its result keys, which place the jobs.
func (c *Coordinator) run(ctx context.Context, sweep wire.Sweep, id string, keys []string, format Format, w io.Writer) (Stats, error) {
	assign, err := Partition(keys, len(c.clients))
	if err != nil {
		return Stats{}, err
	}

	m := newMerger(w, format, id, sweep.Jobs)

	// One trace ID per run: every backend call this sweep makes carries
	// it as X-Trace-Id, so the backends' request logs can be joined on
	// it to reconstruct the whole grid run.
	traceID := obs.NewID()
	c.metrics.sweeps.Inc()
	size := 0 // static mode: each range streams as one chunk
	if c.opts.StealChunk >= 0 {
		size = c.chunkSizeFor(len(sweep.Jobs))
	}
	stats, err := c.dispatch(ctx, c.traced(traceID), sweep.Jobs, chunked(assign, size),
		c.opts.StealChunk >= 0, func(i int, res wire.Result, _ bool) { m.deliver(i, res) })
	stats.TraceID = traceID
	stats.JobsPerBackend = make([]int, len(assign))
	for b, idxs := range assign {
		stats.JobsPerBackend[b] = len(idxs)
	}
	if err != nil {
		return stats, err
	}
	if err := m.finish(); err != nil {
		return stats, err
	}
	c.recordRun(m.status(id))
	return stats, nil
}

// traced returns the backend clients stamped with traceID. Clients are
// copy-on-write, so stamping is per call, not per Coordinator.
func (c *Coordinator) traced(traceID string) []*client.Client {
	out := make([]*client.Client, len(c.clients))
	for b, cl := range c.clients {
		out[b] = cl.WithTraceID(traceID)
	}
	return out
}

// chunk is one contiguous slice of a backend's assigned range: the unit
// of streaming, stealing, backups, and failover. idxs are global job
// indices in ascending order.
type chunk struct {
	idxs []int
}

// chunked splits each backend's range into chunks of size jobs, in
// range order; size <= 0 keeps each non-empty range whole.
func chunked(assign [][]int, size int) [][]chunk {
	queues := make([][]chunk, len(assign))
	for b, idxs := range assign {
		for len(idxs) > 0 {
			k := len(idxs)
			if size > 0 && size < k {
				k = size
			}
			queues[b] = append(queues[b], chunk{idxs: idxs[:k]})
			idxs = idxs[k:]
		}
	}
	return queues
}

// runState is one dispatch's shared scheduling state: the
// trace-stamped clients (one per backend), the jobs, where their
// results go, and the coordinator's metrics the run's events count in.
type runState struct {
	clients []*client.Client
	jobs    []wire.Job
	deliver func(i int, res wire.Result, cached bool)
	metrics *gridMetrics

	mu       sync.Mutex
	cond     *sync.Cond // claimable-work / flight-changed signal
	queues   [][]chunk  // pending chunks per backend, in range order
	flights  []*flight  // chunks being streamed right now
	alive    []bool
	attempts []int
	merged   []bool // per job: a copy's result went to deliver
	stats    Stats  // the run's counters, changed only by tally
	stealOK  bool
	backupOK bool
	fatal    error
	cancel   context.CancelFunc // aborts in-flight streams on fatal
}

// tally counts one event in the run's Stats and in the coordinator's
// registry — the one place a scheduling event is counted — and returns
// the event for the caller to pass to Observe once it has released
// st.mu. Caller holds st.mu.
func tally(st *runState, ev Event) Event {
	m := st.metrics
	switch ev.Kind {
	case EventResult:
		st.stats.Delivered[ev.Backend]++
		m.delivered[ev.Backend].Inc()
	case EventBackendLost:
		st.stats.BackendsLost++
		m.lost.Inc()
	case EventRedispatch:
		st.stats.Retried += ev.Jobs
		m.redispatches.Inc()
		m.retried.Add(uint64(ev.Jobs))
	case EventBackendDone:
		m.streamSecs[ev.Backend].Observe(ev.Elapsed.Seconds())
	case EventSteal:
		st.stats.Steals++
		m.steals.Inc()
	case EventBackup:
		st.stats.Backups++
		m.backups.Inc()
	}
	return ev
}

// flight is one chunk being streamed: by the primary copy that claimed
// it and, once an idle backend backs it up, by a second copy. Guarded
// by runState.mu.
type flight struct {
	ch       chunk
	miss     bool // the primary's backend answered X-Cache: miss
	cached   bool // the primary's provenance, given to every merged job
	backedUp bool
	live     []*copyStream
}

// copyStream is one stream of a flight's chunk on backend b.
type copyStream struct {
	f      *flight
	b      int
	backup bool
	cancel context.CancelFunc
	// superseded: the twin ended cleanly first (guarded by runState.mu).
	superseded bool
}

// dispatch streams the queued chunks of jobs on the backends — the one
// scheduler sweeps and bisect rounds share. Each backend's worker
// streams one chunk at a time: the head of its own queue, else (when
// steal) the tail of the most-loaded peer's queue, else — unless
// Options.StealChunk is negative — a backup of a chunk another backend
// is still computing. deliver receives each job's first delivery only,
// with the cache provenance of its chunk's primary stream. dispatch
// returns the run's counters (Delivered, Steals, Backups, Retried,
// BackendsLost), tallied from its events, and the error that left a
// job undelivered, if any.
func (c *Coordinator) dispatch(ctx context.Context, clients []*client.Client, jobs []wire.Job,
	queues [][]chunk, steal bool, deliver func(i int, res wire.Result, cached bool)) (Stats, error) {
	// A fatal error (rejection, exhausted budget, no backends left)
	// cancels every in-flight backend stream: the run's outcome is
	// already decided, so finishing the merge would only delay the
	// report by the slowest sub-sweep.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &runState{
		clients:  clients,
		jobs:     jobs,
		deliver:  deliver,
		metrics:  c.metrics,
		queues:   queues,
		alive:    make([]bool, len(clients)),
		attempts: make([]int, len(jobs)),
		merged:   make([]bool, len(jobs)),
		stats:    Stats{Delivered: make([]int, len(clients))},
		stealOK:  steal,
		backupOK: c.opts.StealChunk >= 0,
		cancel:   cancel,
	}
	st.cond = sync.NewCond(&st.mu)
	for b := range clients {
		st.alive[b] = true
	}

	var wg sync.WaitGroup
	for b := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.worker(ctx, st, b)
		}()
	}
	wg.Wait()

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fatal != nil {
		return st.stats, st.fatal
	}
	for i, ok := range st.merged {
		if !ok {
			// Every failure path re-queues or fails the run, so this is a
			// scheduler bug — never report a truncated merge as success.
			return st.stats, fmt.Errorf("gridcoord: job %d was never delivered", i)
		}
	}
	return st.stats, nil
}

// fail records the run's fatal error (first one wins), cancels the
// in-flight backend streams, and wakes every waiting worker so they
// exit. Caller holds st.mu.
func (st *runState) fail(err error) {
	if st.fatal == nil {
		st.fatal = err
		st.cancel()
		st.cond.Broadcast()
	}
}

// claimLocked picks the next chunk for backend b: the head of its own
// queue, else the tail chunk of the peer with the most pending jobs
// (ties to the lowest index) — any peer when stealing is enabled, only
// a dead one otherwise. Tail-stealing takes the work the owner is
// farthest from reaching. Caller holds st.mu.
func (st *runState) claimLocked(b int) (chunk, int, bool) {
	if q := st.queues[b]; len(q) > 0 {
		ch := q[0]
		st.queues[b] = q[1:]
		return ch, b, true
	}
	victim, most := -1, 0
	for v := range st.queues {
		if v == b || (!st.stealOK && st.alive[v]) {
			continue
		}
		pending := 0
		for _, ch := range st.queues[v] {
			pending += len(ch.idxs)
		}
		if pending > most {
			victim, most = v, pending
		}
	}
	if victim == -1 {
		return chunk{}, 0, false
	}
	q := st.queues[victim]
	ch := q[len(q)-1]
	st.queues[victim] = q[:len(q)-1]
	return ch, victim, true
}

// backupLocked picks the chunk an idle worker backs up: among chunks
// whose primary's backend answered X-Cache: miss and that have no
// backup yet, the one with the most unmerged jobs (ties to the oldest
// flight). Nil in static mode or when none qualifies. The caller's
// backend is idle, so every such chunk streams elsewhere. Caller holds
// st.mu.
func (st *runState) backupLocked() *flight {
	if !st.backupOK {
		return nil
	}
	var best *flight
	most := 0
	for _, f := range st.flights {
		if !f.miss || f.backedUp {
			continue
		}
		left := 0
		for _, i := range f.ch.idxs {
			if !st.merged[i] {
				left++
			}
		}
		if left > most {
			best, most = f, left
		}
	}
	return best
}

// drainedLocked reports whether the run is drained: nothing pending in
// any queue (a chunk this worker may not claim is its owner's to
// stream, and may still fail and re-queue here) and nothing in flight.
// Caller holds st.mu.
func (st *runState) drainedLocked() bool {
	for _, q := range st.queues {
		if len(q) > 0 {
			return false
		}
	}
	return len(st.flights) == 0
}

// worker is backend b's streaming loop: claim a chunk (own queue first,
// then steal), else back up another backend's chunk, stream it, repeat
// — until the backend dies, the run fails, or no work remains anywhere
// and nothing is in flight (an in-flight chunk can still fail and
// re-queue, or become worth a backup, so idle workers wait rather than
// exit).
func (c *Coordinator) worker(ctx context.Context, st *runState, b int) {
	for {
		st.mu.Lock()
		var (
			f      *flight
			backup bool
			ev     []Event
		)
		for f == nil {
			if st.fatal != nil || !st.alive[b] {
				st.mu.Unlock()
				return
			}
			if ch, from, ok := st.claimLocked(b); ok {
				// Claim and accounting are one critical section: every job
				// is attempt-charged exactly once per primary stream it
				// rides (backups are free).
				for _, i := range ch.idxs {
					st.attempts[i]++
				}
				f = &flight{ch: ch}
				st.flights = append(st.flights, f)
				if from != b {
					ev = append(ev, tally(st, Event{Kind: EventSteal, Backend: b, From: from, Jobs: len(ch.idxs)}))
				}
			} else if f = st.backupLocked(); f != nil {
				backup = true
				f.backedUp = true
				ev = append(ev, tally(st, Event{Kind: EventBackup, Backend: b, From: f.live[0].b, Jobs: len(f.ch.idxs)}))
			} else if st.drainedLocked() {
				// Wake the other idle workers so they see it too.
				st.cond.Broadcast()
				st.mu.Unlock()
				return
			} else {
				st.cond.Wait()
			}
		}
		sctx, cancel := context.WithCancel(ctx)
		cp := &copyStream{f: f, b: b, backup: backup, cancel: cancel}
		f.live = append(f.live, cp)
		st.mu.Unlock()
		c.observeAll(ev)

		c.stream(sctx, st, cp)
	}
}

// observeAll fires the Observe hook for each event, in order.
func (c *Coordinator) observeAll(evs []Event) {
	for _, ev := range evs {
		c.observe(ev)
	}
}

// started records a primary stream's admission verdict: whether its
// chunk may be backed up (a miss — the backend is computing it) and
// the provenance every merged job of the chunk reports.
func (st *runState) started(f *flight, sub *client.Submission) {
	st.mu.Lock()
	f.miss = sub.Disposition == "miss"
	f.cached = sub.Cached
	st.mu.Unlock()
	if f.miss {
		st.cond.Broadcast() // an idle worker may now back it up
	}
}

// first claims the merge slot of ev's job (an EventResult) and tallies
// ev: true, with the chunk's provenance, when no copy delivered the job
// before.
func (st *runState) first(f *flight, ev Event) (cached, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.merged[ev.Index] {
		return false, false
	}
	st.merged[ev.Index] = true
	tally(st, ev)
	return f.cached, true
}

// stream runs one copy of a flight's chunk on its backend, delivers the
// jobs no other copy delivered first, and settles the outcome through
// end. A stream that breaks — transport error, broken stream order,
// stall — is a failure; ctx is the copy's own, cancelled when its twin
// wins.
func (c *Coordinator) stream(ctx context.Context, st *runState, cp *copyStream) {
	defer cp.cancel()
	f, b := cp.f, cp.b
	sub := wire.Sweep{Version: wire.V1, Jobs: make([]wire.Job, len(f.ch.idxs))}
	for k, i := range f.ch.idxs {
		sub.Jobs[k] = st.jobs[i]
	}
	read, merged := 0, 0
	start := time.Now()
	var protoErr error
	// The stall watchdog: a peer that accepts the request and then goes
	// silent never surfaces a transport error, so the coordinator
	// cancels the stream itself when no result lands for StallTimeout.
	var stalled atomic.Bool
	var watchdog *time.Timer
	if d := c.opts.StallTimeout; d > 0 {
		watchdog = time.AfterFunc(d, func() {
			stalled.Store(true)
			cp.cancel()
		})
		defer watchdog.Stop()
	}
	// DiscardResults: the merger owns buffering (released on emission),
	// so the client must not retain a second full copy.
	opts := client.SubmitOptions{Workers: c.opts.Workers, DiscardResults: true}
	if !cp.backup {
		opts.OnStart = func(s *client.Submission) { st.started(f, s) }
	}
	_, err := st.clients[b].SubmitSweep(ctx, sub, opts, func(res wire.Result) {
		if watchdog != nil {
			watchdog.Reset(c.opts.StallTimeout)
		}
		// The service streams its sub-sweep strictly in order; a line
		// off that contract (a non-simserve peer, a version-skewed
		// binary, a mangling proxy) is a backend failure like any other
		// — never an index panic, and never a result merged under the
		// wrong job.
		if protoErr != nil {
			return
		}
		if res.Index != read {
			protoErr = fmt.Errorf("gridcoord: backend %d broke stream order: result index %d, want %d",
				b, res.Index, read)
			return
		}
		if read >= len(f.ch.idxs) {
			protoErr = fmt.Errorf("gridcoord: backend %d streamed more results than its %d jobs",
				b, len(f.ch.idxs))
			return
		}
		global := f.ch.idxs[res.Index]
		read++
		ev := Event{Kind: EventResult, Backend: b, Index: global}
		if cached, ok := st.first(f, ev); ok {
			merged++
			c.observe(ev)
			st.deliver(global, res, cached)
		}
	})
	if err == nil {
		err = protoErr
	}
	if err == nil && read != len(f.ch.idxs) {
		// A backend whose header under-claims the job count produces a
		// stream that decodes cleanly yet delivers too few results; left
		// unchecked, the shortfall would silently vanish from the merge.
		err = fmt.Errorf("gridcoord: backend %d stream ended after %d of %d results",
			b, read, len(f.ch.idxs))
	}
	if err != nil && stalled.Load() {
		err = fmt.Errorf("gridcoord: backend %d stalled: no result in %v: %w",
			b, c.opts.StallTimeout, err)
	}
	c.end(st, cp, merged, time.Since(start), err)
}

// end settles one copy's outcome and reports it. The first copy of a
// chunk to end cleanly cancels its twin, which is superseded: not
// failed, its backend still alive. A copy that fails while its twin is
// live leaves the chunk to the twin; the last copy to fail re-queues the
// chunk's unmerged jobs.
func (c *Coordinator) end(st *runState, cp *copyStream, merged int, elapsed time.Duration, err error) {
	f, b := cp.f, cp.b
	st.mu.Lock()
	f.live = slices.DeleteFunc(f.live, func(o *copyStream) bool { return o == cp })
	switch {
	case cp.superseded:
		err = ErrSuperseded
	case err == nil:
		for _, twin := range f.live {
			twin.superseded = true
			twin.cancel()
		}
	}
	// The terminal stream event fires on every path — a backend that
	// dies before its first delivered job still reports, with the
	// failure attached.
	ev := []Event{tally(st, Event{Kind: EventBackendDone, Backend: b, Jobs: merged, Elapsed: elapsed, Err: err})}
	if err != nil && !cp.superseded {
		var unmerged []int
		for _, i := range f.ch.idxs {
			if !st.merged[i] {
				unmerged = append(unmerged, i)
			}
		}
		// b's worker streams one copy at a time and exits once b is dead,
		// so this is b's only loss in the run.
		st.alive[b] = false
		ev = append(ev, tally(st, Event{Kind: EventBackendLost, Backend: b, Jobs: len(unmerged), Err: err}))
		if len(f.live) == 0 {
			ev = c.requeueLocked(st, b, unmerged, err, ev)
		}
	}
	if len(f.live) == 0 {
		st.flights = slices.DeleteFunc(st.flights, func(o *flight) bool { return o == f })
	}
	// Wake idle workers after the re-queue, so a waiter re-checks the
	// queues before concluding the run is drained.
	st.cond.Broadcast()
	st.mu.Unlock()
	c.observeAll(ev)
}

// requeueLocked puts a failed chunk's unmerged jobs at the head of the
// next surviving backend's queue, honoring the per-job attempt budget,
// and returns ev with the redispatch event appended. Rejections (HTTP
// 4xx other than 429) are fatal immediately: every backend shares the
// admission rules, so a retry would be rejected identically. Caller
// holds st.mu.
func (c *Coordinator) requeueLocked(st *runState, b int, remaining []int, cause error, ev []Event) []Event {
	if len(remaining) == 0 || st.fatal != nil {
		return ev
	}
	var apiErr *client.APIError
	if errors.As(cause, &apiErr) && apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
		apiErr.StatusCode != http.StatusTooManyRequests {
		// 429 is the one transient 4xx (a tenant rate limit refills on
		// its own); any other rejection is identical everywhere.
		st.fail(fmt.Errorf("gridcoord: backend %d rejected sub-sweep: %w", b, cause))
		return ev
	}
	for _, i := range remaining {
		if st.attempts[i] >= c.opts.Attempts {
			st.fail(fmt.Errorf("gridcoord: job %d exhausted its %d attempts (last: %w)",
				i, c.opts.Attempts, cause))
			return ev
		}
	}
	next := -1
	for k := 1; k <= len(st.alive); k++ {
		if cand := (b + k) % len(st.alive); st.alive[cand] {
			next = cand
			break
		}
	}
	if next == -1 {
		st.fail(fmt.Errorf("gridcoord: all backends failed (%d jobs undelivered; last: %w)",
			len(remaining), cause))
		return ev
	}
	st.queues[next] = append([]chunk{{idxs: remaining}}, st.queues[next]...)
	return append(ev, tally(st, Event{Kind: EventRedispatch, Backend: next, Jobs: len(remaining)}))
}

// --- merge: ordered collection + single-host-identical rendering ---

// merger buffers out-of-order deliveries and emits the completed
// prefix in job order — sweeprun.Ordered's collection invariant,
// re-created across hosts — through the same wire.BodyWriter a backend
// renders with. Decoding a backend's line and re-encoding it is
// byte-stable: Go's JSON encoder emits the shortest float
// representation that round-trips, and taskalloc.Report's NaN↔null
// mapping is symmetric. An emitted result's trajectory (it can be many
// MB) is released at once; the rest, a few hundred bytes per cell, is
// kept for the run's status, so the out-of-order window bounds the
// trajectories retained.
type merger struct {
	mu      sync.Mutex
	jobs    []wire.Job
	pending []*wire.Result // delivered, not yet emitted
	emitted []wire.Result  // in job order, trajectories dropped
	body    *wire.BodyWriter
	// flush is the writer's http.Flusher, so a client reads each cell
	// as it is emitted; nil for a plain io.Writer.
	flush func()
	err   error
}

// newMerger writes the stream header (or CSV header row) to w, and
// flushes it when w is an http.Flusher.
func newMerger(w io.Writer, format Format, id string, jobs []wire.Job) *merger {
	m := &merger{
		jobs:    jobs,
		pending: make([]*wire.Result, len(jobs)),
		emitted: make([]wire.Result, 0, len(jobs)),
		body: wire.NewBodyWriter(w, string(format),
			wire.StreamHeader{Version: wire.V1, ID: id, Jobs: len(jobs)}, 0),
	}
	if f, ok := w.(http.Flusher); ok {
		m.flush = f.Flush
		m.flush()
	}
	return m
}

// deliver records global job index i's result and emits the newly
// completed prefix, re-indexed to global positions, flushing it when
// the writer can. Each index is delivered once: the dispatcher keeps a
// job's first copy and drops a backup's duplicate before it gets here.
func (m *merger) deliver(i int, res wire.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res.Index = i
	m.pending[i] = &res
	from := len(m.emitted)
	for n := from; n < len(m.pending) && m.pending[n] != nil; n++ {
		out := *m.pending[n]
		m.pending[n] = nil
		if m.err == nil {
			m.err = m.body.Cell(out, m.jobs[n].Rounds)
		}
		out.Trajectory = ""
		m.emitted = append(m.emitted, out)
	}
	if m.flush != nil && len(m.emitted) > from {
		m.flush()
	}
}

// finish reports the first render error.
func (m *merger) finish() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// status is the single-host GET /v1/sweeps/{id} body of a completed
// merge: every result, trajectories elided, and the summary
// sweeprun.Summarize computes over the same per-cell reports a single
// host aggregates.
func (m *merger) status(id string) *wire.SweepStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	results := make([]sweeprun.Result, len(m.emitted))
	for i, res := range m.emitted {
		results[i] = sweeprun.Result{Index: i, Job: sweeprun.Job{Meta: res.Meta, Rounds: m.jobs[i].Rounds}}
		if res.Err != "" {
			results[i].Err = errors.New(res.Err)
		} else if res.Report != nil {
			results[i].Report = *res.Report
		}
	}
	sum := sweeprun.Summarize(results)
	return &wire.SweepStatus{
		ID:      id,
		Status:  "done",
		Jobs:    len(m.jobs),
		Failed:  sum.Failed,
		Summary: &sum,
		Results: m.emitted,
	}
}
