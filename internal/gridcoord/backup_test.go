package gridcoord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskalloc/internal/goldencases"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// Backup coverage: a straggler — a real backend that stops writing
// after its first result line — must be backed up by an idle peer, its
// stream superseded rather than failed, and the merged bytes unchanged;
// the twin-failure paths must re-queue a chunk's unmerged jobs exactly
// once, and only when no copy of the chunk is left streaming.

// gatedWriter passes writes through until after lines have been
// written, then calls gate before each further write; a non-nil error
// from gate fails the write.
type gatedWriter struct {
	http.ResponseWriter
	lines int
	after int
	gate  func() error
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if w.lines >= w.after {
		if err := w.gate(); err != nil {
			return 0, err
		}
	}
	w.lines += bytes.Count(p, []byte("\n"))
	return w.ResponseWriter.Write(p)
}

func (w *gatedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// stragglerMode says how the straggler's stall ends.
type stragglerMode int

const (
	// stallUntilCancelled: the straggler's streams end only when the
	// coordinator cancels them.
	stallUntilCancelled stragglerMode = iota
	// backupAborts: the backup of the straggler's first chunk aborts
	// mid-stream; once the coordinator has counted that backend lost,
	// the straggler resumes and finishes cleanly.
	backupAborts
	// bothAbort: as backupAborts, but the straggler then aborts too.
	bothAbort
)

// stragglerFleet is three real backends, one of them (slow) a
// straggler, plus an unwrapped reference backend for the single-host
// bytes.
type stragglerFleet struct {
	urls      []string // the coordinator's backends
	reference string
	slow      int
	// received closes once the straggler holds its first chunk; the
	// other backends hold their first response until then, so the
	// straggler deterministically owns an in-flight chunk.
	received  chan struct{}
	first     atomic.Pointer[[]byte] // the straggler's first sub-sweep body
	release   chan struct{}          // closed to end the straggler's stall (abort modes)
	cancelled chan struct{}          // closed once a straggler handler sees its request end
}

// bootStragglers boots the fleet for sweep with the straggler on the
// backend owning the largest range, so its first chunk holds >= 2 jobs.
func bootStragglers(t *testing.T, sweep wire.Sweep, mode stragglerMode) *stragglerFleet {
	t.Helper()
	slow, assign := victimWithJobs(t, sweep, 3)
	for b, idxs := range assign {
		if len(idxs) == 0 {
			t.Fatalf("degenerate partition: backend %d got no jobs (%v)", b, assign)
		}
	}
	f := &stragglerFleet{slow: slow, received: make(chan struct{}), release: make(chan struct{}),
		cancelled: make(chan struct{})}
	var receivedOnce, cancelledOnce sync.Once
	urls := bootBackends(t, 4, func(i int, h http.Handler) http.Handler {
		if i == 3 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
				h.ServeHTTP(w, r)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if i != slow {
				select {
				case <-f.received:
				case <-r.Context().Done():
					return
				}
				if mode != stallUntilCancelled && bytes.Equal(body, *f.first.Load()) {
					// The backup of the straggler's chunk: die after the
					// header and one result line.
					h.ServeHTTP(&gatedWriter{ResponseWriter: w, after: 2, gate: func() error {
						panic(http.ErrAbortHandler)
					}}, r)
					return
				}
				h.ServeHTTP(w, r)
				return
			}
			receivedOnce.Do(func() {
				f.first.Store(&body)
				close(f.received)
			})
			stall := func() error {
				select {
				case <-r.Context().Done():
					cancelledOnce.Do(func() { close(f.cancelled) })
					return r.Context().Err()
				case <-f.release:
					if mode == bothAbort {
						panic(http.ErrAbortHandler)
					}
					return nil
				}
			}
			h.ServeHTTP(&gatedWriter{ResponseWriter: w, after: 2, gate: stall}, r)
			// A one-job chunk has no write past its first result: hold
			// the stream open the same way.
			_ = stall()
		})
	})
	f.urls, f.reference = urls[:3], urls[3]
	return f
}

// backupRun is one coordinator run over a straggler fleet, with the
// events it observed.
type backupRun struct {
	stats   Stats
	out     []byte
	results []int   // EventResult count per job
	backups []Event // EventBackup
	done    []Event // EventBackendDone
	lost    []Event // EventBackendLost
	redisp  []Event // EventRedispatch
}

// runBackups runs sweep over the fleet with stealing on (chunks of 3),
// no stall watchdog, and a 10 s deadline. onLost, if set, fires on each
// EventBackendLost.
func runBackups(t *testing.T, f *stragglerFleet, sweep wire.Sweep, onLost func(Event)) (*Coordinator, backupRun) {
	t.Helper()
	var (
		mu  sync.Mutex
		run = backupRun{results: make([]int, len(sweep.Jobs))}
	)
	coord, err := New(Options{
		Backends:   f.urls,
		StealChunk: 3,
		// One simulation at a time: each backend emits on its handler
		// goroutine, where an aborting write's http.ErrAbortHandler
		// panic is recovered by net/http.
		Workers: 1,
		Observe: func(ev Event) {
			mu.Lock()
			switch ev.Kind {
			case EventResult:
				run.results[ev.Index]++
			case EventBackup:
				run.backups = append(run.backups, ev)
			case EventBackendDone:
				run.done = append(run.done, ev)
			case EventBackendLost:
				run.lost = append(run.lost, ev)
			case EventRedispatch:
				run.redisp = append(run.redisp, ev)
			}
			mu.Unlock()
			if ev.Kind == EventBackendLost && onLost != nil {
				onLost(ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out bytes.Buffer
	stats, err := coord.Run(ctx, sweep, FormatNDJSON, &out)
	if err != nil {
		t.Fatalf("run over a straggler: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	run.stats, run.out = stats, out.Bytes()
	return coord, run
}

// checkLedger asserts the invariants every backup run keeps: the
// single host's bytes (want), each job merged exactly once, Delivered
// summing to the grid, Stats.Backups matching the EventBackup stream,
// and one EventBackendDone per launched stream (every initial chunk,
// every re-queued one, every backup).
func checkLedger(t *testing.T, sweep wire.Sweep, run backupRun, want []byte) {
	t.Helper()
	if !bytes.Equal(run.out, want) {
		t.Errorf("merged NDJSON differs from single host\n got: %s\nwant: %s",
			firstDiffLine(run.out, want), firstDiffLine(want, run.out))
	}
	for i, n := range run.results {
		if n != 1 {
			t.Errorf("job %d merged %d times, want exactly once", i, n)
		}
	}
	if got := sum(run.stats.Delivered); got != len(sweep.Jobs) {
		t.Errorf("Delivered %v sums to %d, want %d", run.stats.Delivered, got, len(sweep.Jobs))
	}
	if run.stats.Backups != len(run.backups) {
		t.Errorf("Stats.Backups = %d but %d EventBackup observed", run.stats.Backups, len(run.backups))
	}
	assign := partitionJobs(t, sweep.Jobs, 3)
	launched := len(run.backups) + len(run.redisp)
	for _, q := range chunked(assign, 3) {
		launched += len(q)
	}
	if len(run.done) != launched {
		t.Errorf("%d EventBackendDone for %d launched streams", len(run.done), launched)
	}
}

// TestStragglerBackupSweep: a backend that stops mid-chunk — alive,
// connection open, no error — is neither waited on nor failed over: an
// idle peer backs up its in-flight chunk, the backup's clean finish
// cancels the straggler's stream (superseded, not lost), and the merged
// bytes and the fused status equal the single host's. There is no stall
// watchdog: without backups the run would wait out its deadline.
func TestStragglerBackupSweep(t *testing.T) {
	sweep := fastSweep(8100, 12)
	f := bootStragglers(t, sweep, stallUntilCancelled)
	want := singleHost(t, f.reference, sweep, "ndjson")

	coord, run := runBackups(t, f, sweep, nil)
	checkLedger(t, sweep, run, want)
	if run.stats.BackendsLost != 0 || run.stats.Retried != 0 {
		t.Errorf("stats %+v: a straggler must be superseded, not lost or retried", run.stats)
	}
	fromSlow := false
	for _, ev := range run.backups {
		fromSlow = fromSlow || ev.From == f.slow
	}
	if !fromSlow {
		t.Errorf("no EventBackup from straggler %d: %+v", f.slow, run.backups)
	}
	slowDone := 0
	for _, ev := range run.done {
		switch {
		case ev.Backend == f.slow:
			slowDone++
			if !errors.Is(ev.Err, ErrSuperseded) {
				t.Errorf("straggler stream ended with %v, want ErrSuperseded", ev.Err)
			}
		case ev.Err != nil && !errors.Is(ev.Err, ErrSuperseded):
			t.Errorf("backend %d stream failed: %v", ev.Backend, ev.Err)
		}
	}
	if slowDone == 0 {
		t.Error("the straggler reported no EventBackendDone")
	}
	// The server notices the cancelled stream's closed connection after
	// Run has returned.
	select {
	case <-f.cancelled:
	case <-time.After(5 * time.Second):
		t.Error("the straggler's handler never saw its request cancelled")
	}

	// The winners recorded every chunk, so the fused summary covers the
	// grid and equals the single host's GET.
	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepStatus(id)
	if err != nil {
		t.Fatalf("SweepStatus after a superseded straggler: %v", err)
	}
	ref, err := client.New(f.reference, nil).GetSweep(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	refJSON, _ := json.Marshal(ref)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Errorf("fused status differs from single host:\n got: %s\nwant: %s", gotJSON, refJSON)
	}
}

// TestBackupTwinFailures: the twin accounting when copies of one chunk
// die. A backup that aborts while the straggler's copy is live re-queues
// nothing — the live copy still carries the chunk; when both copies
// abort, the last one re-queues the chunk's unmerged jobs, once.
func TestBackupTwinFailures(t *testing.T) {
	t.Run("backup-aborts", func(t *testing.T) {
		sweep := fastSweep(8200, 12)
		f := bootStragglers(t, sweep, backupAborts)
		want := singleHost(t, f.reference, sweep, "ndjson")
		var once sync.Once
		_, run := runBackups(t, f, sweep, func(Event) { once.Do(func() { close(f.release) }) })
		checkLedger(t, sweep, run, want)
		if run.stats.BackendsLost != 1 || run.stats.Retried != 0 || len(run.redisp) != 0 {
			t.Errorf("stats %+v with %d redispatches; want the backup's backend lost and nothing re-queued",
				run.stats, len(run.redisp))
		}
		if len(run.lost) != 1 || run.lost[0].Backend == f.slow {
			t.Errorf("lost events %+v, want exactly one, for the backup's backend", run.lost)
		}
	})
	t.Run("both-abort", func(t *testing.T) {
		sweep := fastSweep(8300, 12)
		f := bootStragglers(t, sweep, bothAbort)
		want := singleHost(t, f.reference, sweep, "ndjson")
		var once sync.Once
		_, run := runBackups(t, f, sweep, func(Event) { once.Do(func() { close(f.release) }) })
		checkLedger(t, sweep, run, want)
		first, err := wire.DecodeSweep(bytes.NewReader(*f.first.Load()))
		if err != nil {
			t.Fatal(err)
		}
		// Each copy delivered the chunk's first job before dying; the
		// rest re-queue once.
		unmerged := len(first.Jobs) - 1
		if run.stats.BackendsLost != 2 || run.stats.Retried != unmerged || len(run.redisp) != 1 {
			t.Errorf("stats %+v with %d redispatches; want 2 lost and the chunk's %d unmerged jobs re-queued once",
				run.stats, len(run.redisp), unmerged)
		}
	})
}

// TestBisectStragglerBackup: a bisect round whose owner computes slowly
// (JobDelay) is finished by a backup on an idle backend. The search
// path and cells equal a single backend's, the slow owner's cells keep
// the owner's provenance (cached: false), and — the superseded owner
// having finished server-side — a repeat is served wholly from cache.
// In static mode (StealChunk < 0) the same kind of round waits for its
// owner: no backups.
func TestBisectStragglerBackup(t *testing.T) {
	cfg, err := goldencases.All()[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := wire.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	request := func(seed uint64) wire.BisectRequest {
		c := wcfg
		c.Seed = seed
		return wire.BisectRequest{
			Version:    wire.V1,
			Job:        wire.Job{Rounds: 120, Config: c},
			GammaLo:    0.01,
			GammaHi:    1.0 / 16,
			TargetBand: 8,
			MaxEvals:   6,
		}
	}
	// ownerOf is the backend owning a request's first-round γ_lo cell.
	ownerOf := func(req wire.BisectRequest) int {
		j := req.Job
		j.Config.Gamma = req.GammaLo
		sem, err := wire.SemanticHash(j)
		if err != nil {
			t.Fatal(err)
		}
		return ownerIndex(t, sem, 3)
	}
	// That owner is slow, for the backup run and for a fresh static run.
	req := request(wcfg.Seed)
	slow := ownerOf(req)
	static := request(wcfg.Seed + 1)
	for ownerOf(static) != slow {
		static = request(static.Job.Config.Seed + 1)
	}
	urls := make([]string, 4)
	for i := range urls {
		var delay time.Duration
		if i == slow {
			delay = 300 * time.Millisecond
		}
		srv := simserver.New(simserver.Options{Workers: 2, JobDelay: delay})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	single := client.New(urls[3], nil)

	var (
		mu      sync.Mutex
		backups int
	)
	countBackups := func(ev Event) {
		if ev.Kind == EventBackup {
			mu.Lock()
			backups++
			mu.Unlock()
		}
	}
	coord, err := New(Options{Backends: urls[:3], Observe: countBackups})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sameAsSingle := func(req wire.BisectRequest, got *wire.BisectResponse) {
		t.Helper()
		want, err := single.Bisect(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("coordinator bisect differs from a single backend's:\n got: %s\nwant: %s", gotJSON, wantJSON)
		}
	}
	got, err := coord.Bisect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAsSingle(req, got)
	mu.Lock()
	if backups == 0 {
		t.Error("no EventBackup: the slow owner held its rounds")
	}
	mu.Unlock()
	for _, cell := range got.Cells {
		j := req.Job
		j.Config.Gamma = cell.Gamma
		if sem, err := wire.SemanticHash(j); err == nil && ownerIndex(t, sem, 3) == slow && cell.Cached {
			t.Errorf("slow owner's cell γ=%v reports cached; its owner computed it", cell.Gamma)
		}
	}

	again, err := coord.Bisect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != again.Evals {
		t.Errorf("repeat bisect hit %d of %d cells; the superseded owner should have cached its cells",
			again.CacheHits, again.Evals)
	}

	mu.Lock()
	backups = 0
	mu.Unlock()
	staticCoord, err := New(Options{Backends: urls[:3], StealChunk: -1, Observe: countBackups})
	if err != nil {
		t.Fatal(err)
	}
	got, err = staticCoord.Bisect(ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	sameAsSingle(static, got)
	mu.Lock()
	defer mu.Unlock()
	if backups != 0 {
		t.Errorf("static mode backed up %d chunks, want none", backups)
	}
}
