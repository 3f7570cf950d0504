package gridcoord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// testSweep builds a grid from the golden corpus (trajectories on for
// every other job, to exercise both render paths) plus a few extra
// seed-varied cells so the partition spreads over every backend.
func testSweep(t *testing.T) wire.Sweep {
	t.Helper()
	sweep := wire.Sweep{Version: wire.V1}
	for i, gc := range goldencases.All() {
		cfg, err := gc.Config()
		if err != nil {
			t.Fatal(err)
		}
		wcfg, err := wire.FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:       []string{"case", gc.Name, "golden", "7"},
			Rounds:     gc.Rounds,
			Trajectory: i%2 == 0,
			Config:     wcfg,
		})
	}
	return sweep
}

// bootBackends starts n in-process simulation services, each wrapped by
// wrap (identity when nil), and returns their base URLs.
func bootBackends(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := simserver.New(simserver.Options{Workers: 2})
		t.Cleanup(srv.Close)
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// singleHost POSTs the sweep to one backend directly and returns the
// raw response body — the reference bytes the merged stream must equal.
func singleHost(t *testing.T, url string, sweep wire.Sweep, format string) []byte {
	t.Helper()
	body, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps?format="+format, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("single-host POST: %s: %s", resp.Status, msg)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergedStreamMatchesSingleHost is the core tentpole contract: the
// coordinator's merged NDJSON and CSV are byte-identical to the same
// sweep served whole by one backend, at 1 and 3 backends.
func TestMergedStreamMatchesSingleHost(t *testing.T) {
	sweep := testSweep(t)
	urls := bootBackends(t, 4, nil)
	reference := urls[3] // not used by the coordinator below

	wantNDJSON := singleHost(t, reference, sweep, "ndjson")
	wantCSV := singleHost(t, reference, sweep, "csv")

	for _, n := range []int{1, 3} {
		coord, err := New(Options{Backends: urls[:n]})
		if err != nil {
			t.Fatal(err)
		}
		assign, err := Partition(sweep.Jobs, n)
		if err != nil {
			t.Fatal(err)
		}
		if n == 3 {
			for b, idxs := range assign {
				if len(idxs) == 0 {
					t.Fatalf("degenerate partition: backend %d got no jobs (%v)", b, assign)
				}
			}
		}
		var ndjson, csvOut bytes.Buffer
		stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &ndjson)
		if err != nil {
			t.Fatalf("%d backends: %v", n, err)
		}
		if got := sum(stats.JobsPerBackend); got != len(sweep.Jobs) {
			t.Fatalf("%d backends: partition covers %d of %d jobs", n, got, len(sweep.Jobs))
		}
		if _, err := coord.Run(context.Background(), sweep, FormatCSV, &csvOut); err != nil {
			t.Fatalf("%d backends csv: %v", n, err)
		}
		if !bytes.Equal(ndjson.Bytes(), wantNDJSON) {
			t.Errorf("%d backends: merged NDJSON differs from single host\n got: %s\nwant: %s",
				n, firstDiffLine(ndjson.Bytes(), wantNDJSON), firstDiffLine(wantNDJSON, ndjson.Bytes()))
		}
		if !bytes.Equal(csvOut.Bytes(), wantCSV) {
			t.Errorf("%d backends: merged CSV differs from single host\n got: %s\nwant: %s",
				n, firstDiffLine(csvOut.Bytes(), wantCSV), firstDiffLine(wantCSV, csvOut.Bytes()))
		}
	}
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// firstDiffLine returns x's first line that differs from y's.
func firstDiffLine(x, y []byte) []byte {
	xl, yl := bytes.Split(x, []byte("\n")), bytes.Split(y, []byte("\n"))
	for i := 0; i < len(xl); i++ {
		if i >= len(yl) || !bytes.Equal(xl[i], yl[i]) {
			return xl[i]
		}
	}
	return nil
}

// abortingHandler aborts the victim's first submission stream after
// two NDJSON lines (header + one result) by panicking with
// http.ErrAbortHandler from inside a Write — a deterministic mid-sweep
// backend death, as seen by the coordinator's client.
type abortingHandler struct {
	inner http.Handler
	armed atomic.Bool
}

func (a *abortingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") &&
		a.armed.CompareAndSwap(true, false) {
		a.inner.ServeHTTP(&abortingWriter{ResponseWriter: w, failAfter: 2}, r)
		return
	}
	a.inner.ServeHTTP(w, r)
}

type abortingWriter struct {
	http.ResponseWriter
	lines     int
	failAfter int
}

func (w *abortingWriter) Write(p []byte) (int, error) {
	if w.lines >= w.failAfter {
		panic(http.ErrAbortHandler)
	}
	w.lines += bytes.Count(p, []byte("\n"))
	return w.ResponseWriter.Write(p)
}

func (w *abortingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestBackendFailureMidSweep kills one backend after it has delivered
// exactly one result; the merged stream must still be byte-identical
// to a single-host run, with the undelivered jobs retried elsewhere.
func TestBackendFailureMidSweep(t *testing.T) {
	sweep := testSweep(t)
	var aborters []*abortingHandler
	var mu sync.Mutex
	urls := bootBackends(t, 4, func(i int, h http.Handler) http.Handler {
		a := &abortingHandler{inner: h}
		mu.Lock()
		aborters = append(aborters, a)
		mu.Unlock()
		return a
	})
	want := singleHost(t, urls[3], sweep, "ndjson")

	// The victim must own >= 2 jobs so the abort strands some. Backends
	// use workers=1 via the coordinator? No: the abort is line-counted,
	// not timing-based, so any worker count works.
	assign, err := Partition(sweep.Jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := 0
	for b, idxs := range assign {
		if len(idxs) > len(assign[victim]) {
			victim = b
		}
	}
	if len(assign[victim]) < 2 {
		t.Fatalf("victim backend %d owns %d jobs; need >= 2 (%v)", victim, len(assign[victim]), assign)
	}
	aborters[victim].armed.Store(true)

	var lost, redispatched atomic.Int64
	coord, err := New(Options{
		Backends: urls[:3],
		// Static mode (no chunking/stealing): the victim's whole range
		// is one stream, so the exact retried-count assertion below —
		// every undelivered job of the range re-dispatches — stays
		// meaningful. Chunked failure accounting is covered by the
		// property suite and TestStalledBackendMidSweep.
		StealChunk: -1,
		// workers=1 keeps each backend's emission on the HTTP handler
		// goroutine, so the aborting writer's http.ErrAbortHandler panic
		// is recovered by net/http (a real process kill is exercised by
		// the cmd/simgrid e2e test).
		Workers: 1,
		Observe: func(ev Event) {
			switch ev.Kind {
			case EventBackendLost:
				lost.Add(1)
			case EventRedispatch:
				redispatched.Add(int64(ev.Jobs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &got)
	if err != nil {
		t.Fatal(err)
	}
	if lost.Load() == 0 {
		t.Fatal("victim backend was never lost — the abort did not fire")
	}
	if stats.Retried == 0 || redispatched.Load() == 0 {
		t.Fatalf("no jobs were re-dispatched after the mid-sweep abort (stats %+v)", stats)
	}
	if stats.Retried != len(assign[victim])-1 {
		t.Errorf("retried %d jobs, want the victim's %d undelivered",
			stats.Retried, len(assign[victim])-1)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged NDJSON after mid-sweep failure differs from single host\n got: %s\nwant: %s",
			firstDiffLine(got.Bytes(), want), firstDiffLine(want, got.Bytes()))
	}
	// The victim's one delivered job came from a stream that failed, so
	// no completed chunk on any backend covers it; the status is the
	// merge's own and still equals the single host's GET.
	checkStatus(t, coord, urls[3], sweep)

	// CSV with the victim already dead (connection-level failure on a
	// fresh submission): the whole range redistributes, bytes hold.
	wantCSV := singleHost(t, urls[3], sweep, "csv")
	deadCoord, err := New(Options{Backends: []string{urls[0], "http://127.0.0.1:1", urls[2]}})
	if err != nil {
		t.Fatal(err)
	}
	var csvOut bytes.Buffer
	stats, err = deadCoord.Run(context.Background(), sweep, FormatCSV, &csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendsLost != 1 {
		t.Errorf("BackendsLost = %d, want 1", stats.BackendsLost)
	}
	if !bytes.Equal(csvOut.Bytes(), wantCSV) {
		t.Errorf("merged CSV with a dead backend differs from single host\n got: %s\nwant: %s",
			firstDiffLine(csvOut.Bytes(), wantCSV), firstDiffLine(wantCSV, csvOut.Bytes()))
	}
}

// checkStatus asserts the coordinator's status of a completed run of
// sweep is the JSON the single host at refURL answers GET
// /v1/sweeps/{id} with.
func checkStatus(t *testing.T, coord *Coordinator, refURL string, sweep wire.Sweep) {
	t.Helper()
	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.SweepStatus(id)
	if err != nil {
		t.Fatalf("SweepStatus: %v", err)
	}
	ref, err := client.New(refURL, nil).GetSweep(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	refJSON, _ := json.Marshal(ref)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Errorf("coordinator status differs from the single host's GET:\n got: %s\nwant: %s", gotJSON, refJSON)
	}
}

// TestSweepStatusOutlivesBackendCaches: backends that keep two sweeps
// each stream more chunks than that in one run, so by the time the run
// completes they have evicted most of its sub-sweeps. The coordinator's
// status is its own merge's, so it still equals the single host's GET —
// and keeps doing so with every backend shut down.
func TestSweepStatusOutlivesBackendCaches(t *testing.T) {
	sweep := testSweep(t)
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		srv := simserver.New(simserver.Options{Workers: 2, CacheEntries: 2})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		servers = append(servers, ts)
	}
	reference := bootBackends(t, 1, nil)[0]
	want := singleHost(t, reference, sweep, "ndjson")

	coord, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("merged NDJSON differs from single host\n got: %s\nwant: %s",
			firstDiffLine(got.Bytes(), want), firstDiffLine(want, got.Bytes()))
	}
	if chunks := len(sweep.Jobs) / coord.chunkSizeFor(len(sweep.Jobs)); chunks <= 2*len(urls) {
		t.Fatalf("%d chunks fit in the backends' caches; the test needs more", chunks)
	}
	checkStatus(t, coord, reference, sweep)

	for _, ts := range servers {
		ts.Close()
	}
	checkStatus(t, coord, reference, sweep)
}

// TestMalformedBackendStream: a peer that violates the stream contract
// (indices out of order / out of range) is a backend failure — its
// range retries on a well-behaved survivor, the process never panics,
// and the merged bytes still match a single host.
func TestMalformedBackendStream(t *testing.T) {
	sweep := testSweep(t)
	var goodURL string
	urls := bootBackends(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		// Backend 0 speaks a broken dialect: a correct header, then
		// result lines with absurd indices.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
				h.ServeHTTP(w, r)
				return
			}
			sub, err := wire.DecodeSweep(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			enc := json.NewEncoder(w)
			_ = enc.Encode(wire.StreamHeader{Version: wire.V1, ID: "bogus", Jobs: len(sub.Jobs)})
			for range sub.Jobs {
				_ = enc.Encode(wire.Result{Index: 999, Err: "nonsense"})
			}
		})
	})
	goodURL = urls[1]
	want := singleHost(t, goodURL, sweep, "ndjson")

	coord, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendsLost != 1 {
		t.Errorf("BackendsLost = %d, want the malformed backend only", stats.BackendsLost)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged stream with a malformed backend differs from single host\n got: %s\nwant: %s",
			firstDiffLine(got.Bytes(), want), firstDiffLine(want, got.Bytes()))
	}
}

// TestAllBackendsDown and the attempt budget: a run that cannot place
// its jobs must fail loudly, never emit a partial stream as success.
func TestAllBackendsDown(t *testing.T) {
	sweep := testSweep(t)
	coord, err := New(Options{Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, &out); err == nil {
		t.Fatal("run with every backend down reported success")
	}
}

// TestRejectionIsFatal: an admission rejection (4xx) must fail the run
// immediately instead of being retried across every backend.
func TestRejectionIsFatal(t *testing.T) {
	urls := bootBackends(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "grid has too many jobs", http.StatusRequestEntityTooLarge)
		})
	})
	coord, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	var redispatches atomic.Int64
	coord.opts.Observe = func(ev Event) {
		if ev.Kind == EventRedispatch {
			redispatches.Add(1)
		}
	}
	var out bytes.Buffer
	_, err = coord.Run(context.Background(), testSweep(t), FormatNDJSON, &out)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want a rejection error, got %v", err)
	}
	if redispatches.Load() != 0 {
		t.Errorf("a 4xx rejection was re-dispatched %d times", redispatches.Load())
	}
}

// TestResubmittedGridHitsBackendCaches pins cache affinity: placement
// is a pure function of (job behavior, backend count), so the same grid
// run twice on one Coordinator sends every backend the identical
// sub-sweep both times, and the second run is served entirely from the
// backends' sweep caches. Stealing is off so each backend streams its
// whole range as one sub-sweep and the count is exact. One backend is
// slowed per job: how fast a backend ran the first time must not move
// where the second run's jobs go.
func TestResubmittedGridHitsBackendCaches(t *testing.T) {
	const n = 3
	urls := make([]string, n)
	for i := range urls {
		var delay time.Duration
		if i == 1 {
			delay = 2 * time.Millisecond
		}
		srv := simserver.New(simserver.Options{Workers: 2, JobDelay: delay})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 24; i++ {
		sweep.Jobs = append(sweep.Jobs, propJob(uint64(7000+i)))
	}
	assign, err := Partition(sweep.Jobs, n)
	if err != nil {
		t.Fatal(err)
	}
	for b, idxs := range assign {
		if len(idxs) == 0 {
			t.Fatalf("degenerate partition: backend %d got no jobs (%v)", b, assign)
		}
	}
	coord, err := New(Options{Backends: urls, StealChunk: -1})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, &first); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-submitted grid merged to different bytes")
	}
	var hits, misses float64
	for _, u := range urls {
		hits += backendMetric(t, u, `taskalloc_sweep_requests_total{disposition="hit"}`)
		misses += backendMetric(t, u, `taskalloc_sweep_requests_total{disposition="miss"}`)
	}
	if misses != n || hits != n {
		t.Errorf("backend sweep caches: %g misses, %g hits over two runs; want %d and %d (second run fully warm)",
			misses, hits, n, n)
	}
}

// backendMetric scrapes a backend's GET /v1/metrics and returns one
// series' value (name plus labels), failing when it is absent.
func backendMetric(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s/v1/metrics has no series %s", base, series)
	return 0
}

// TestBisectThroughCoordinator: the coordinator shards each refinement
// round across the backends with deterministic per-γ affinity, so a
// repeat request replays every shard from a warm backend cache; killing
// the backend that owns a round-1 cell fails its shards over to
// survivors, and the coordinator reports the loss.
func TestBisectThroughCoordinator(t *testing.T) {
	urls := bootBackends(t, 3, nil)
	coord, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := goldencases.All()[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := wire.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.BisectRequest{
		Version:    wire.V1,
		Job:        wire.Job{Rounds: 120, Config: wcfg},
		GammaLo:    0.01,
		GammaHi:    1.0 / 16,
		TargetBand: 8,
		MaxEvals:   32,
	}
	ctx := context.Background()
	first, err := coord.Bisect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evals == 0 || len(first.Cells) != first.Evals {
		t.Fatalf("bad first response: %+v", first)
	}
	again, err := coord.Bisect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != again.Evals {
		t.Errorf("repeat bisect hit %d of %d cells; affinity should make it all-cached",
			again.CacheHits, again.Evals)
	}

	// Failover: replace the range owner of the γ_lo endpoint cell — which
	// every search evaluates in round 1 — with a dead address; the shards
	// it owns must still succeed on a survivor (cold cache).
	lo := req.Job
	lo.Config.Gamma = req.GammaLo
	h, err := wire.SemanticHash(lo)
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerIndex(t, h, len(urls))
	broken := append([]string(nil), urls...)
	broken[owner] = "http://127.0.0.1:1"
	var ownerLost atomic.Bool
	failover, err := New(Options{Backends: broken, Observe: func(ev Event) {
		if ev.Kind == EventBackendLost && ev.Backend == owner {
			ownerLost.Store(true)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := failover.Bisect(ctx, req)
	if err != nil {
		t.Fatalf("bisect failover: %v", err)
	}
	if resp.Evals != first.Evals {
		t.Errorf("failover response evaluated %d cells, owner evaluated %d", resp.Evals, first.Evals)
	}
	if !ownerLost.Load() {
		t.Errorf("no EventBackendLost for the dead owner, backend %d", owner)
	}
}

// ownerIndex is the equal-range owner of hash among n backends.
func ownerIndex(t *testing.T, hash string, n int) int {
	t.Helper()
	v, err := strconv.ParseUint(hash[:16], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return int(v / (^uint64(0)/uint64(n) + 1))
}
