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
// wire.SemanticHash(job) — the behavioral hash, under which equivalent
// spellings of one job (a frozen snapshot and its generative schedule,
// say) collapse to the same key. The assignment is a pure function of
// (job behavior, backend count), so a Coordinator carries no placement
// state from one run to the next and a re-submitted grid reaches the
// backends whose caches hold it. Each backend's range is split into
// chunks that its worker streams in range order; a worker that drains
// its own queue steals pending chunks from the most-loaded peer's
// tail, which is how a slow backend sheds load. Stealing moves only
// jobs that have not started streaming, so no job ever runs twice
// because of a steal, and the merged output is byte-identical at any
// steal schedule: the collector orders results by global job index,
// never by arrival.
//
// Failure handling: when a backend dies mid-chunk (transport error,
// truncated stream), the chunk's undelivered jobs are re-queued on the
// next surviving backend, bounded by a per-job attempt budget; the dead
// backend's pending chunks redistribute through the same stealing path
// at no attempt cost. Results already delivered are kept — each job
// runs at most once per attempt, and the merged order never depends on
// timing, so output bytes are identical whether or not a retry
// happened. Rejections (HTTP 4xx other than 429) are not retried: a
// backend that rejects a sub-sweep would reject it identically
// everywhere.
//
// Adaptive grids: Bisect runs the shared refinement search
// (internal/bisect) on the coordinator and sends each round's γ cells
// as one sub-sweep per owning backend, the owner being the same
// equal-range owner of each cell's SemanticHash — the search path is
// deterministic, so a repeat request replays every sub-sweep from the
// backends' sweep caches. SweepStatus fans a completed run's summary
// query out to the backends that streamed its chunks and fuses the
// results into the single-host response; Handler serves both over
// HTTP.
package gridcoord

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
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
	// HTTPClient is used for every backend call; nil means
	// http.DefaultClient.
	HTTPClient *http.Client
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
	// 1); negative disables stealing entirely — each range streams as
	// one static chunk, the pre-adaptive behavior.
	StealChunk int
	// StallTimeout aborts a backend stream that delivers no result for
	// this long (the transport alone cannot detect a peer that accepts
	// the request and then hangs); the chunk's undelivered jobs
	// re-dispatch under the attempt budget. 0 disables the watchdog.
	StallTimeout time.Duration
	// MaxBisectEvals is the default evaluation budget stamped on bisect
	// requests that leave max_evals 0, mirroring the backends' own
	// default; <= 0 means 128.
	MaxBisectEvals int
	// Observe, if non-nil, receives progress events (results delivered,
	// chunks stolen, backends lost, ranges re-dispatched). Called from
	// coordinator goroutines; it must be safe for concurrent use.
	Observe func(Event)
	// Token is the tenant bearer token sent to every backend (each
	// backend call authenticates as the coordinator's tenant). Empty
	// for open backends.
	Token string
	// Registry, if non-nil, receives the coordinator's metric families
	// (run counts, steals, redispatches, per-backend delivery/
	// stream-latency/throughput/assignment) for the caller to expose —
	// cmd/simgrid serves it on -metrics-addr. Families register at New,
	// so use one Registry per Coordinator. Nil records to a private,
	// unexposed registry.
	Registry *obs.Registry
}

// EventKind discriminates Event.
type EventKind int

// The event kinds Observe receives.
const (
	// EventResult: one job's result was delivered by a backend (before
	// merge emission).
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
	// failure (nil on success).
	EventBackendDone
	// EventSteal: an idle backend claimed a pending chunk from another
	// backend's queue (From) before streaming it itself.
	EventSteal
)

// Event is one coordinator progress notification.
type Event struct {
	// Kind says what happened.
	Kind EventKind
	// Backend is the backend index the event concerns.
	Backend int
	// From is the backend index a stolen chunk was queued on
	// (EventSteal only).
	From int
	// Index is the delivered job's global index (EventResult only).
	Index int
	// Jobs counts the jobs involved (EventBackendLost: undelivered;
	// EventRedispatch: re-queued; EventSteal: stolen; EventBackendDone:
	// delivered).
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
	// Delivered counts the job results each backend actually delivered
	// (summing to the sweep size on success; redistributed under
	// stealing and failover).
	Delivered []int
	// Steals counts chunks claimed across backend queues.
	Steals int
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

	// rmu guards the completed-run registry SweepStatus fans out from.
	rmu      sync.Mutex
	runs     map[string]*runRecord
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
	if opts.MaxBisectEvals <= 0 {
		opts.MaxBisectEvals = 128
	}
	c := &Coordinator{opts: opts, runs: make(map[string]*runRecord)}
	for _, b := range opts.Backends {
		cl := client.New(b, opts.HTTPClient)
		if opts.Token != "" {
			cl = cl.WithToken(opts.Token)
		}
		c.clients = append(c.clients, cl)
	}
	c.metrics = newGridMetrics(opts.Registry, len(c.clients))
	return c, nil
}

// Partition assigns each job to one of n backends by behavioral
// job-hash range: the 64-bit prefix of wire.SemanticHash(job) falls
// into one of n equal slices of the hash space. The assignment is a
// pure function of (job's behavior, n) — re-submitting the same grid,
// or any behaviorally equivalent spelling of it, to the same backend
// count reproduces it exactly, so equivalent jobs land on the backend
// that already holds the result.
func Partition(jobs []wire.Job, n int) ([][]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("gridcoord: partition needs n >= 1, got %d", n)
	}
	out := make([][]int, n)
	for i, j := range jobs {
		h, err := wire.SemanticHash(j)
		if err != nil {
			return nil, fmt.Errorf("gridcoord: jobs[%d]: %w", i, err)
		}
		b, err := rangeIndex(h, n)
		if err != nil {
			return nil, fmt.Errorf("gridcoord: jobs[%d]: %w", i, err)
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
// whatever steal schedule or failover path the run takes.
func (c *Coordinator) Run(ctx context.Context, sweep wire.Sweep, format Format, w io.Writer) (Stats, error) {
	if format != FormatNDJSON && format != FormatCSV {
		return Stats{}, fmt.Errorf("gridcoord: unknown format %q", format)
	}
	if sweep.Version == "" {
		sweep.Version = wire.V1
	}
	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		return Stats{}, err
	}
	assign, err := Partition(sweep.Jobs, len(c.clients))
	if err != nil {
		return Stats{}, err
	}

	var m *merger
	switch format {
	case FormatCSV:
		m = newMerger(newCSVMerge(w, sweep.Jobs), len(sweep.Jobs))
	default:
		m = newMerger(newNDJSONMerge(w, wire.StreamHeader{
			Version: wire.V1, ID: id, Jobs: len(sweep.Jobs),
		}), len(sweep.Jobs))
	}

	// A fatal error (rejection, exhausted budget, no backends left)
	// cancels every in-flight backend stream: the run's outcome is
	// already decided, so finishing the merge would only delay the
	// report by the slowest sub-sweep.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One trace ID per run: every backend call this sweep makes carries
	// it as X-Trace-Id, so the backends' request logs can be joined on
	// it to reconstruct the whole grid run. Clients are copy-on-write,
	// so stamping is per-run, not per-Coordinator.
	traceID := obs.NewID()
	st := &runState{
		clients:   make([]*client.Client, len(c.clients)),
		queues:    make([][]chunk, len(c.clients)),
		alive:     make([]bool, len(c.clients)),
		attempts:  make([]int, len(sweep.Jobs)),
		delivered: make([]int, len(c.clients)),
		assigned:  make([]int, len(c.clients)),
		stealOK:   c.opts.StealChunk >= 0,
		cancel:    cancel,
	}
	st.cond = sync.NewCond(&st.mu)
	for b, cl := range c.clients {
		st.clients[b] = cl.WithTraceID(traceID)
	}
	c.metrics.sweeps.Inc()
	stats := Stats{TraceID: traceID, JobsPerBackend: make([]int, len(c.clients))}
	chunkSize := c.chunkSizeFor(len(sweep.Jobs))
	for b, idxs := range assign {
		st.alive[b] = true
		st.assigned[b] = len(idxs)
		stats.JobsPerBackend[b] = len(idxs)
		c.metrics.assigned[b].Set(float64(len(idxs)))
		if st.stealOK {
			for len(idxs) > 0 {
				k := chunkSize
				if k > len(idxs) {
					k = len(idxs)
				}
				st.queues[b] = append(st.queues[b], chunk{idxs: idxs[:k]})
				idxs = idxs[k:]
			}
		} else if len(idxs) > 0 {
			st.queues[b] = []chunk{{idxs: idxs}}
		}
	}

	var wg sync.WaitGroup
	for b := range c.clients {
		wg.Add(1)
		go c.worker(ctx, &wg, st, m, sweep, b)
	}
	wg.Wait()

	st.mu.Lock()
	stats.Retried = st.retried
	stats.BackendsLost = st.lost
	stats.Steals = st.steals
	stats.Delivered = st.delivered
	fatal := st.fatal
	chunks := st.chunks
	st.mu.Unlock()
	if fatal != nil {
		return stats, fatal
	}
	if err := m.finish(); err != nil {
		return stats, err
	}
	c.recordRun(id, sweep.Jobs, chunks)
	return stats, nil
}

// chunk is one contiguous slice of a backend's assigned range: the unit
// of streaming, stealing, and failover. idxs are global job indices in
// ascending order.
type chunk struct {
	idxs []int
}

// chunkRecord remembers one successfully streamed chunk: which backend
// ran it, the sub-sweep's semantic hash (the backend's public sweep ID
// for it), and the global indices it covered — enough for SweepStatus
// to fan the summary query back out.
type chunkRecord struct {
	backend int
	id      string
	idxs    []int
}

// runState is one Run's shared scheduling state, plus the run's
// trace-stamped clients (one per backend, all carrying the run's
// X-Trace-Id).
type runState struct {
	clients []*client.Client

	mu        sync.Mutex
	cond      *sync.Cond // claimable-work / inflight-drained signal
	queues    [][]chunk  // pending chunks per backend, in range order
	alive     []bool
	attempts  []int
	delivered []int // per-backend delivered-result counts
	assigned  []int // per-backend current assignment (steals move it)
	inflight  int   // chunks being streamed right now
	steals    int
	retried   int
	lost      int
	chunks    []chunkRecord
	stealOK   bool
	fatal     error
	cancel    context.CancelFunc // aborts in-flight streams on fatal
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
// queue, else — when stealing is enabled — the tail chunk of the peer
// with the most pending jobs (ties to the lowest index). Tail-stealing
// takes the work the owner is farthest from reaching. Caller holds
// st.mu.
func (st *runState) claimLocked(b int) (chunk, int, bool) {
	if q := st.queues[b]; len(q) > 0 {
		ch := q[0]
		st.queues[b] = q[1:]
		return ch, b, true
	}
	if !st.stealOK {
		return chunk{}, 0, false
	}
	victim, most := -1, 0
	for v := range st.queues {
		if v == b {
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

// worker is backend b's streaming loop: claim a chunk (own queue first,
// then steal), stream it, repeat — until the backend dies, the run
// fails, or no work remains anywhere and nothing is in flight (an
// in-flight chunk can still fail and re-queue, so idle workers wait
// rather than exit).
func (c *Coordinator) worker(ctx context.Context, wg *sync.WaitGroup, st *runState,
	m *merger, sweep wire.Sweep, b int) {
	defer wg.Done()
	for {
		st.mu.Lock()
		var (
			ch   chunk
			from int
		)
		for {
			if st.fatal != nil || !st.alive[b] {
				st.mu.Unlock()
				return
			}
			var ok bool
			if ch, from, ok = st.claimLocked(b); ok {
				break
			}
			if st.inflight == 0 {
				// Nothing pending, nothing in flight: the run is drained.
				// Wake the other idle workers so they see it too.
				st.cond.Broadcast()
				st.mu.Unlock()
				return
			}
			st.cond.Wait()
		}
		// Claim and accounting are one critical section: every job is
		// attempt-charged exactly once per stream it rides.
		for _, i := range ch.idxs {
			st.attempts[i]++
		}
		st.inflight++
		stolen := from != b
		if stolen {
			st.steals++
			st.assigned[from] -= len(ch.idxs)
			st.assigned[b] += len(ch.idxs)
			c.metrics.steals.Inc()
			c.metrics.assigned[from].Set(float64(st.assigned[from]))
			c.metrics.assigned[b].Set(float64(st.assigned[b]))
		}
		st.mu.Unlock()
		if stolen {
			c.observe(Event{Kind: EventSteal, Backend: b, From: from, Jobs: len(ch.idxs)})
		}

		c.stream(ctx, st, m, sweep, b, ch)

		// A failed stream re-queues its remainder inside stream (before
		// this decrement), so a waiter woken here always re-checks the
		// queues before concluding the run is drained.
		st.mu.Lock()
		st.inflight--
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// stream submits one chunk to backend b and delivers its results to the
// merger. On failure — transport error, broken stream order, stall —
// the undelivered remainder goes through chunkFailed.
func (c *Coordinator) stream(ctx context.Context, st *runState, m *merger,
	sweep wire.Sweep, b int, ch chunk) {
	sub := wire.Sweep{Version: wire.V1, Jobs: make([]wire.Job, len(ch.idxs))}
	for k, i := range ch.idxs {
		sub.Jobs[k] = sweep.Jobs[i]
	}
	delivered := 0
	start := time.Now()
	var protoErr error
	// The stall watchdog: a peer that accepts the request and then goes
	// silent never surfaces a transport error, so the coordinator
	// cancels the stream itself when no result lands for StallTimeout.
	sctx := ctx
	var stalled atomic.Bool
	var watchdog *time.Timer
	if d := c.opts.StallTimeout; d > 0 {
		var cancelStream context.CancelFunc
		sctx, cancelStream = context.WithCancel(ctx)
		defer cancelStream()
		watchdog = time.AfterFunc(d, func() {
			stalled.Store(true)
			cancelStream()
		})
		defer watchdog.Stop()
	}
	// DiscardResults: the merger owns buffering (released on emission),
	// so the client must not retain a second full copy.
	_, err := st.clients[b].SubmitSweep(sctx, sub,
		client.SubmitOptions{Workers: c.opts.Workers, DiscardResults: true},
		func(res wire.Result) {
			if watchdog != nil {
				watchdog.Reset(c.opts.StallTimeout)
			}
			// The service streams its sub-sweep strictly in order; a
			// line off that contract (a non-simserve peer, a
			// version-skewed binary, a mangling proxy) is a backend
			// failure like any other — never an index panic, and
			// never a result merged under the wrong job.
			if protoErr != nil {
				return
			}
			if res.Index != delivered {
				protoErr = fmt.Errorf("gridcoord: backend %d broke stream order: result index %d, want %d",
					b, res.Index, delivered)
				return
			}
			if delivered >= len(ch.idxs) {
				protoErr = fmt.Errorf("gridcoord: backend %d streamed more results than its %d jobs",
					b, len(ch.idxs))
				return
			}
			global := ch.idxs[res.Index]
			delivered++
			c.observe(Event{Kind: EventResult, Backend: b, Index: global})
			m.deliver(global, res)
		})
	if err == nil {
		err = protoErr
	}
	if err == nil && delivered != len(ch.idxs) {
		// A backend whose header under-claims the job count produces a
		// stream that decodes cleanly yet delivers too few results; left
		// unchecked, the shortfall would silently vanish from the merge.
		err = fmt.Errorf("gridcoord: backend %d stream ended after %d of %d results",
			b, delivered, len(ch.idxs))
	}
	if err != nil && stalled.Load() && ctx.Err() == nil {
		err = fmt.Errorf("gridcoord: backend %d stalled: no result in %v: %w",
			b, c.opts.StallTimeout, err)
	}
	elapsed := time.Since(start)
	st.mu.Lock()
	st.delivered[b] += delivered
	st.mu.Unlock()
	c.metrics.streamDone(b, delivered, elapsed)
	// The terminal stream event fires on every path — a backend that
	// dies before its first delivered job still reports, with the
	// failure attached.
	c.observe(Event{Kind: EventBackendDone, Backend: b, Jobs: delivered, Elapsed: elapsed, Err: err})
	if err == nil {
		if subID, herr := wire.SemanticSweepHash(sub); herr == nil {
			st.mu.Lock()
			st.chunks = append(st.chunks, chunkRecord{backend: b, id: subID, idxs: ch.idxs})
			st.mu.Unlock()
		}
		return
	}
	remaining := ch.idxs[delivered:]
	c.observe(Event{Kind: EventBackendLost, Backend: b, Jobs: len(remaining), Err: err})
	c.chunkFailed(st, b, remaining, err)
}

// chunkFailed marks backend b dead and re-queues the failed chunk's
// undelivered jobs at the head of the next surviving backend's queue,
// honoring the per-job attempt budget. The dead backend's still-pending
// chunks stay where they are — the stealing path redistributes them at
// no attempt cost. Rejections (HTTP 4xx other than 429) are fatal
// immediately: every backend shares the admission rules, so a retry
// would be rejected identically.
func (c *Coordinator) chunkFailed(st *runState, b int, remaining []int, cause error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.alive[b] {
		st.alive[b] = false
		st.lost++
		c.metrics.lost.Inc()
	}
	if len(remaining) == 0 || st.fatal != nil {
		return
	}
	var apiErr *client.APIError
	if errors.As(cause, &apiErr) && apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
		apiErr.StatusCode != http.StatusTooManyRequests {
		// 429 is the one transient 4xx (a tenant rate limit refills on
		// its own); any other rejection is identical everywhere.
		st.fail(fmt.Errorf("gridcoord: backend %d rejected sub-sweep: %w", b, cause))
		return
	}
	for _, i := range remaining {
		if st.attempts[i] >= c.opts.Attempts {
			st.fail(fmt.Errorf("gridcoord: job %d exhausted its %d attempts (last: %w)",
				i, c.opts.Attempts, cause))
			return
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
		return
	}
	st.retried += len(remaining)
	c.metrics.redispatches.Inc()
	c.metrics.retried.Add(uint64(len(remaining)))
	st.assigned[b] -= len(remaining)
	st.assigned[next] += len(remaining)
	c.metrics.assigned[b].Set(float64(st.assigned[b]))
	c.metrics.assigned[next].Set(float64(st.assigned[next]))
	st.queues[next] = append([]chunk{{idxs: remaining}}, st.queues[next]...)
	c.observe(Event{Kind: EventRedispatch, Backend: next, Jobs: len(remaining)})
	st.cond.Broadcast()
}

// --- merge: ordered collection + single-host-identical rendering ---

// mergeRenderer renders one result; calls arrive in strict global job
// order, serialized by the merger.
type mergeRenderer interface {
	result(global int, res wire.Result) error
	finish() error
}

// merger buffers out-of-order deliveries and emits the completed
// prefix in job order — sweeprun.Ordered's collection invariant,
// re-created across hosts. Emitted results are released immediately
// (trajectory-bearing results can be many MB each), so retained memory
// is bounded by the out-of-order window, not the sweep size.
type merger struct {
	mu        sync.Mutex
	results   []*wire.Result
	delivered []bool
	cursor    int
	render    mergeRenderer
	err       error
}

func newMerger(r mergeRenderer, n int) *merger {
	return &merger{results: make([]*wire.Result, n), delivered: make([]bool, n), render: r}
}

// deliver records global job index i's result and flushes the newly
// completed prefix. Duplicate deliveries (a retry racing a slow first
// stream) keep the first result; both attempts ran the identical job,
// so the bytes are the same either way.
func (m *merger) deliver(i int, res wire.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.delivered[i] {
		return
	}
	m.delivered[i] = true
	m.results[i] = &res
	for m.cursor < len(m.delivered) && m.delivered[m.cursor] {
		if m.err == nil {
			m.err = m.render.result(m.cursor, *m.results[m.cursor])
		}
		m.results[m.cursor] = nil
		m.cursor++
	}
}

// finish flushes the renderer and reports the first render error.
func (m *merger) finish() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return m.render.finish()
}

// ndjsonMerge re-emits the single-host NDJSON stream: the header line,
// then each result re-indexed to its global position. Decoding a
// backend's line and re-encoding it is byte-stable: Go's JSON encoder
// emits the shortest float representation that round-trips, and
// taskalloc.Report's NaN↔null mapping is symmetric.
type ndjsonMerge struct {
	enc *json.Encoder
	err error
}

func newNDJSONMerge(w io.Writer, header wire.StreamHeader) *ndjsonMerge {
	m := &ndjsonMerge{enc: json.NewEncoder(w)}
	m.err = m.enc.Encode(header)
	return m
}

func (m *ndjsonMerge) result(global int, res wire.Result) error {
	if m.err != nil {
		return m.err
	}
	res.Index = global
	if err := m.enc.Encode(res); err != nil {
		// Mirror the server renderer: a cell that cannot re-encode still
		// gets its line, as an error, deterministically.
		return m.enc.Encode(wire.Result{Index: global, Meta: res.Meta, Err: "encode: " + err.Error()})
	}
	return nil
}

func (m *ndjsonMerge) finish() error { return m.err }

// csvMerge re-emits the single-host CSV: the shared sweeprun header,
// then one row per successful cell in job order (failed cells skipped),
// through the same CSVRow helper the server and cmd/sweep render with.
type csvMerge struct {
	w    *csv.Writer
	jobs []wire.Job
}

func newCSVMerge(w io.Writer, jobs []wire.Job) *csvMerge {
	m := &csvMerge{w: csv.NewWriter(w), jobs: jobs}
	_ = m.w.Write(sweeprun.CSVHeader())
	return m
}

func (m *csvMerge) result(global int, res wire.Result) error {
	if res.Err != "" || res.Report == nil {
		return m.w.Error()
	}
	_ = m.w.Write(sweeprun.CSVRow(res.Meta, *res.Report, m.jobs[global].Rounds))
	return m.w.Error()
}

func (m *csvMerge) finish() error {
	m.w.Flush()
	return m.w.Error()
}
