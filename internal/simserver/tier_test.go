package simserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"taskalloc"
	"taskalloc/internal/bisect"
	"taskalloc/internal/wire"
)

// bisectReply is one POST /v1/bisect answer: status, X-Cache and body.
type bisectReply struct {
	code        int
	disposition string
	body        []byte
	err         error
}

// sendBisect POSTs a bisect request; safe on any goroutine.
func sendBisect(ctx context.Context, base string, req wire.BisectRequest) bisectReply {
	blob, err := json.Marshal(req)
	if err != nil {
		return bisectReply{err: err}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/bisect", bytes.NewReader(blob))
	if err != nil {
		return bisectReply{err: err}
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return bisectReply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return bisectReply{resp.StatusCode, resp.Header.Get("X-Cache"), body, err}
}

// postBisectRaw is sendBisect on the test goroutine, failing on a
// transport error.
func postBisectRaw(t *testing.T, base string, req wire.BisectRequest) (int, string, []byte) {
	t.Helper()
	r := sendBisect(context.Background(), base, req)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.code, r.disposition, r.body
}

// gauge scrapes one unlabelled series from GET /v1/metrics.
func gauge(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

// TestSearchEntryRepeat: a completed search entry answers no request,
// but holds its cells, so a repeat runs the search again with every
// cell a hit: X-Cache hit, cache_hits == evals, no simulation, and the
// body of a re-run search (every cell cached), not the first run's
// bytes. The repeat takes the completed entry's place in the table.
func TestSearchEntryRepeat(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := smallBisectRequest()
	code, disposition, first := postBisectRaw(t, ts.URL, req)
	if code != http.StatusOK || disposition != "miss" {
		t.Fatalf("first search: HTTP %d, X-Cache %q: %s", code, disposition, first)
	}
	runs := srv.metrics.stageEngineRun.Count()
	code, disposition, again := postBisectRaw(t, ts.URL, req)
	if code != http.StatusOK || disposition != "hit" {
		t.Fatalf("repeat: HTTP %d, X-Cache %q, want 200 hit: %s", code, disposition, again)
	}
	if n := srv.metrics.stageEngineRun.Count() - runs; n != 0 {
		t.Fatalf("repeat ran %d simulations, want 0", n)
	}
	var want wire.BisectResponse
	if err := json.Unmarshal(first, &want); err != nil {
		t.Fatal(err)
	}
	if want.Evals < 3 {
		t.Fatalf("first search made %d evaluations; the test wants a refined search", want.Evals)
	}
	want.CacheHits = want.Evals
	for i := range want.Cells {
		want.Cells[i].Cached = true
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf.Bytes()) || bytes.Equal(again, first) {
		t.Fatalf("repeat body is not a re-run with every cell cached:\n--- repeat\n%s--- want\n%s--- first\n%s", again, buf.Bytes(), first)
	}
	if n := gauge(t, ts.URL, "taskalloc_sweep_cache_entries"); n != 1 {
		t.Fatalf("entries = %g after a repeat, want the one search entry", n)
	}
}

// TestSearchEntryFailedOwner: an owner whose search fails after a round
// drops its entry and the round's holds; a waiter that joined it gets
// the owner's error, the entry count returns to its prior value, and a
// resubmission runs afresh. The owner is played through the run hook:
// no real request fails after a round has started.
func TestSearchEntryFailedOwner(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A prior sweep, so "prior" is not zero.
	postSweep(t, ts.URL, reuseGrid(), "")
	prior := gauge(t, ts.URL, "taskalloc_sweep_cache_entries")
	priorKeys := len(reuseGrid().Jobs)

	req := smallBisectRequest()
	search, err := bisect.New(req)
	if err != nil {
		t.Fatal(err)
	}
	ownerErr := errors.New("owner failed after its first round")
	failing := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before the server closes, should a check fail
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := srv.runBisectCoalesced(context.Background(), search.ID, func(e *entry) (wire.BisectResponse, error) {
			eval := srv.bisectEvaluator(e, 1, &searchJournal{s: srv, id: search.ID})
			round := 0
			return search.Run(func(jobs []wire.Job, keys []string, cells []wire.BisectCell) error {
				if round++; round == 1 {
					return eval(jobs, keys, cells)
				}
				close(failing)
				<-release
				return ownerErr
			})
		})
		ownerDone <- err
	}()
	<-failing
	if n := gauge(t, ts.URL, "taskalloc_sweep_cache_entries"); n != prior+1 {
		t.Fatalf("entries in flight = %g, want %g", n, prior+1)
	}
	srv.mu.Lock()
	held := len(srv.index)
	srv.mu.Unlock()
	if held != priorKeys+2 {
		t.Fatalf("index holds %d keys mid-search, want the sweep's %d and the first round's 2", held, priorKeys)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // ends a waiter left hanging, before the server closes
	waiter := make(chan bisectReply, 1)
	go func() { waiter <- sendBisect(ctx, ts.URL, req) }()
	deadline := time.Now().Add(30 * time.Second)
	for srv.metrics.bisectCoalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the identical request never joined the owner")
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce()
	if err := <-ownerDone; !errors.Is(err, ownerErr) {
		t.Fatalf("owner returned %v, want %v", err, ownerErr)
	}
	var w bisectReply
	select {
	case w = <-waiter:
	case <-time.After(30 * time.Second):
		t.Fatal("the waiter never answered after its owner failed")
	}
	if w.err != nil || w.code != http.StatusBadRequest || strings.TrimSpace(string(w.body)) != ownerErr.Error() {
		t.Fatalf("waiter: HTTP %d %q (%v), want 400 with the owner's error", w.code, w.body, w.err)
	}
	if n := gauge(t, ts.URL, "taskalloc_sweep_cache_entries"); n != prior {
		t.Fatalf("entries after the failure = %g, want the prior %g", n, prior)
	}
	srv.mu.Lock()
	held = len(srv.index)
	srv.mu.Unlock()
	if held != priorKeys {
		t.Fatalf("index holds %d keys after the failure, want the sweep's %d", held, priorKeys)
	}

	runs := srv.metrics.stageEngineRun.Count()
	code, disposition, body := postBisectRaw(t, ts.URL, req)
	var resp wire.BisectResponse
	if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("resubmission: HTTP %d: %s", code, body)
	}
	if disposition != "miss" || resp.CacheHits != 0 || srv.metrics.stageEngineRun.Count()-runs != uint64(resp.Evals) {
		t.Fatalf("resubmission: X-Cache %q, %d of %d cells cached; want a fresh run", disposition, resp.CacheHits, resp.Evals)
	}
}

// TestSearchEntryIsNotASweep: on a memory-only server, GET
// /v1/sweeps/{id} naming a search's entry answers 404, streamed or not,
// while the search runs and after it completed.
func TestSearchEntryIsNotASweep(t *testing.T) {
	srv := New(Options{Workers: 1, JobDelay: 50 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := smallBisectRequest()
	search, err := bisect.New(req)
	if err != nil {
		t.Fatal(err)
	}
	jid := search.ID + searchJournalSuffix
	notASweep := func(when string) {
		t.Helper()
		for _, path := range []string{"/v1/sweeps/" + jid, "/v1/sweeps/" + jid + "?cursor=0"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s %s: HTTP %d, want 404", path, when, resp.StatusCode)
			}
		}
	}

	done := make(chan bisectReply, 1)
	go func() { done <- sendBisect(context.Background(), ts.URL, req) }()
	deadline := time.Now().Add(30 * time.Second)
	for srv.metrics.bisectJobMisses.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the search never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	e := srv.entries[jid]
	srv.mu.Unlock()
	if e == nil || e.completed() {
		t.Fatal("no search entry in flight")
	}
	notASweep("while the search runs")
	if r := <-done; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("search: HTTP %d (%v)", r.code, r.err)
	}
	notASweep("after the search completed")
}

// modelEntry is one entry of tierModel.
type modelEntry struct {
	id   string
	keys map[string]bool
	size int64
	done bool
}

// tierModel is the reference model of the memory tier: entries in FIFO
// order, each with the keys it holds and the bytes it is charged, under
// an entry and a byte budget. A key is held while an entry holds it.
type tierModel struct {
	entries int
	budget  int64
	order   []*modelEntry
}

func (m *tierModel) find(id string) (int, *modelEntry) {
	for i, e := range m.order {
		if e.id == id {
			return i, e
		}
	}
	return -1, nil
}

func (m *tierModel) bytes() (n int64) {
	for _, e := range m.order {
		n += e.size
	}
	return n
}

func (m *tierModel) holders(k string) (n int) {
	for _, e := range m.order {
		if e.keys[k] {
			n++
		}
	}
	return n
}

// evict drops the oldest completed entries while over a budget.
func (m *tierModel) evict() {
	for i := 0; i < len(m.order) && (len(m.order) > m.entries || m.bytes() > m.budget); {
		if m.order[i].done {
			m.order = append(m.order[:i], m.order[i+1:]...)
		} else {
			i++
		}
	}
}

// add puts a new entry at the tail and evicts.
func (m *tierModel) add(id string) *modelEntry {
	e := &modelEntry{id: id, keys: map[string]bool{}}
	m.order = append(m.order, e)
	m.evict()
	return e
}

// hold charges e one cell of size bytes and makes it hold key, if any.
func (e *modelEntry) hold(key string, size int64) {
	e.size += size
	if key != "" {
		e.keys[key] = true
	}
}

// TestMemoryTierModel is the property test of the memory tier: a
// fixed-seed sequence of sweeps, bisect searches, duplicate submissions
// and search owners that fail after their first round, drawn from a
// small pool of overlapping cells, runs against a server whose entry
// and byte budgets force evictions, and against tierModel. Every
// lookup a sweep or a search round makes must answer as the model over
// the entries held at that moment says. After every step the table
// must equal the model: the same entries in the same FIFO order, each
// complete, holding its keys once each and charged its bytes; the key
// index must hold exactly the held entries' keys, each with its number
// of holders and its cell's report; and every lookup must answer as
// the model does. So a key two entries share survives the eviction of
// either (the test fails if that never happened).
func TestMemoryTierModel(t *testing.T) {
	const maxEntries, budget = 4, 3000
	srv := New(Options{Workers: 2, CacheEntries: maxEntries, CacheBytes: budget})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	m := &tierModel{entries: maxEntries, budget: budget}

	tmpl := wire.Job{Rounds: 40, Config: wire.Config{Ants: 60, Demands: []int{10, 20}, Seed: 5, Shards: 1}}
	// The pool: the dyadic points of [lo, hi] down to eighths, computed
	// as a search computes midpoints, and the intervals between them down
	// to quarters, so that sweeps and searches share cells.
	points := []float64{0.01, 0.05}
	var intervals [][2]float64
	var split func(lo, hi float64, depth int)
	split = func(lo, hi float64, depth int) {
		if depth == 3 {
			return
		}
		intervals = append(intervals, [2]float64{lo, hi})
		mid := (lo + hi) / 2
		points = append(points, mid)
		split(lo, mid, depth+1)
		split(mid, hi, depth+1)
	}
	split(0.01, 0.05, 0)

	ref := map[string][]byte{} // key → its cell's report, as JSON
	checkReport := func(k string, rep *taskalloc.Report, where string) {
		t.Helper()
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := ref[k]; !ok {
			ref[k] = got
		} else if !bytes.Equal(r, got) {
			t.Fatalf("%s: report of %.8s differs from its first one:\n%s\n%s", where, k, got, r)
		}
	}
	// search runs req through the owner path with the real evaluator,
	// checking each round's lookups against the model and holding the
	// round in it, as the table does; with fail set, the owner fails when
	// its second round starts.
	search := func(req wire.BisectRequest, fail error, where string) (*wire.BisectResponse, string, error) {
		t.Helper()
		sr, err := bisect.New(req)
		if err != nil {
			t.Fatal(err)
		}
		id := sr.ID + searchJournalSuffix
		var e *modelEntry
		if i, old := m.find(id); old != nil {
			e = &modelEntry{id: id, keys: map[string]bool{}}
			for k := range old.keys {
				e.keys[k] = true
			}
			m.order[i] = e
		} else {
			e = m.add(id)
		}
		resp, disposition, err := srv.runBisectCoalesced(context.Background(), sr.ID, func(owned *entry) (wire.BisectResponse, error) {
			eval := srv.bisectEvaluator(owned, 2, &searchJournal{s: srv, id: sr.ID})
			round := 0
			return sr.Run(func(jobs []wire.Job, keys []string, cells []wire.BisectCell) error {
				if round++; round > 1 && fail != nil {
					return fail
				}
				cached := make([]bool, len(keys))
				for i, k := range keys {
					cached[i] = m.holders(k) > 0
				}
				if err := eval(jobs, keys, cells); err != nil {
					return err
				}
				for i, c := range cells {
					if c.Cached != cached[i] {
						t.Fatalf("%s: round %d cell γ=%g cached=%v, want %v", where, round, c.Gamma, c.Cached, cached[i])
					}
					checkReport(keys[i], c.Report, where)
					e.hold(keys[i], 256+int64(len(c.Err)))
				}
				m.evict()
				return nil
			})
		})
		if err != nil {
			i, _ := m.find(id)
			m.order = append(m.order[:i], m.order[i+1:]...)
		} else {
			e.done = true
		}
		return resp, disposition, err
	}

	var sweeps []wire.Sweep
	var searches []wire.BisectRequest
	var evictions, sharedSurvivals, sweepHits, searchHits, failures int
	rng := rand.New(rand.NewSource(27))
	for step := 0; step < 160; step++ {
		before := append([]*modelEntry(nil), m.order...)
		var where string
		switch op := rng.Intn(10); {
		case op < 5: // a sweep, new or a duplicate
			var sweep wire.Sweep
			if len(sweeps) > 0 && rng.Intn(3) == 0 {
				sweep = sweeps[rng.Intn(len(sweeps))]
			} else {
				sweep = wire.Sweep{Version: wire.V1}
				for n := 1 + rng.Intn(5); n > 0; n-- {
					j := tmpl
					j.Config.Gamma = points[rng.Intn(len(points))]
					j.Trajectory = rng.Intn(4) == 0
					sweep.Jobs = append(sweep.Jobs, j)
				}
				sweeps = append(sweeps, sweep)
			}
			id, keys, err := wire.SemanticSweepKeys(sweep)
			if err != nil {
				t.Fatal(err)
			}
			where = fmt.Sprintf("step %d (sweep %.8s, %d jobs)", step, id, len(sweep.Jobs))
			_, e := m.find(id)
			wantDisposition, wantHits := "hit", 0
			if e == nil {
				wantDisposition = "miss"
				e = m.add(id)
				for i, k := range keys {
					if !sweep.Jobs[i].Trajectory && m.holders(k) > 0 {
						wantHits++
					}
				}
			}
			hits := srv.metrics.sweepJobHits.Value()
			resp, body := postSweep(t, ts.URL, sweep, "")
			if d := resp.Header.Get("X-Cache"); d != wantDisposition {
				t.Fatalf("%s: X-Cache %q, want %q", where, d, wantDisposition)
			}
			if got := int(srv.metrics.sweepJobHits.Value() - hits); got != wantHits {
				t.Fatalf("%s: %d cells from the tier, want %d", where, got, wantHits)
			}
			for i, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n"))[1:] {
				var res wire.Result
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatal(err)
				}
				checkReport(keys[i], res.Report, where)
				if wantDisposition == "miss" {
					e.hold(keys[i], 256+int64(len(res.Trajectory)+len(res.Err)))
				}
			}
			if wantDisposition == "hit" {
				sweepHits++
			} else {
				m.evict()
				e.done = true
			}

		case op < 9: // a search, new or a duplicate
			var req wire.BisectRequest
			if len(searches) > 0 && rng.Intn(3) == 0 {
				req = searches[rng.Intn(len(searches))]
			} else {
				iv := intervals[rng.Intn(len(intervals))]
				req = wire.BisectRequest{Version: wire.V1, Job: tmpl, GammaLo: iv[0], GammaHi: iv[1],
					TargetBand: 1e-9, MaxEvals: 2 + rng.Intn(4)}
				searches = append(searches, req)
			}
			where = fmt.Sprintf("step %d (search [%g, %g], %d evals)", step, req.GammaLo, req.GammaHi, req.MaxEvals)
			resp, disposition, err := search(req, nil, where)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if disposition != bisect.Disposition(*resp) {
				t.Fatalf("%s: disposition %q, want %q", where, disposition, bisect.Disposition(*resp))
			}
			if disposition == "hit" {
				searchHits++
			}

		default: // a search whose owner fails after its first round
			iv := intervals[rng.Intn(len(intervals))]
			req := wire.BisectRequest{Version: wire.V1, Job: tmpl, GammaLo: iv[0], GammaHi: iv[1],
				TargetBand: 1e-9, MaxEvals: 4}
			where = fmt.Sprintf("step %d (failing search [%g, %g])", step, req.GammaLo, req.GammaHi)
			fail := errors.New("failed after a round")
			if _, _, err := search(req, fail, where); !errors.Is(err, fail) {
				t.Fatalf("%s: owner returned %v, want %v", where, err, fail)
			}
			failures++
		}

		// The table and its index against the model, from a snapshot
		// taken under the lock.
		type snap struct {
			id   string
			keys []string
			size int64
			done bool
		}
		srv.mu.Lock()
		var table []snap
		for _, id := range srv.order {
			e := srv.entries[id]
			table = append(table, snap{id, append([]string(nil), e.keys...), e.size, e.completed()})
		}
		entries, cacheSize := len(srv.entries), srv.cacheSize
		index := map[string]int{}
		for k, h := range srv.index {
			index[k] = h.holders
		}
		srv.mu.Unlock()
		if len(table) != len(m.order) || entries != len(m.order) {
			t.Fatalf("%s: table holds %d entries in a FIFO order of %d, model %d", where, entries, len(table), len(m.order))
		}
		holders := map[string]int{}
		for i, me := range m.order {
			e := table[i]
			if e.id != me.id || !e.done {
				t.Fatalf("%s: FIFO position %d holds %.8s (complete %v), model %.8s", where, i, e.id, e.done, me.id)
			}
			mine := map[string]bool{}
			for _, k := range e.keys {
				if mine[k] || !me.keys[k] {
					t.Fatalf("%s: entry %.8s holds %.8s twice or not in the model", where, me.id, k)
				}
				mine[k] = true
				holders[k]++
			}
			if len(mine) != len(me.keys) || e.size != me.size {
				t.Fatalf("%s: entry %.8s holds %d keys and %d bytes, model %d and %d", where, me.id, len(mine), e.size, len(me.keys), me.size)
			}
		}
		if cacheSize != m.bytes() || len(index) != len(holders) {
			t.Fatalf("%s: %d bytes and %d indexed keys, model %d and %d", where, cacheSize, len(index), m.bytes(), len(holders))
		}
		for k, n := range holders {
			if index[k] != n {
				t.Fatalf("%s: key %.8s held by %d entries, index counts %d", where, k, n, index[k])
			}
		}
		for k := range ref {
			h, ok := srv.lookupJob(k)
			if ok != (holders[k] > 0) {
				t.Fatalf("%s: lookup of %.8s answered %v, model %v", where, k, ok, holders[k] > 0)
			}
			if ok {
				checkReport(k, &h.report, where)
			}
		}
		for _, e := range before {
			if _, still := m.find(e.id); still == nil {
				evictions++
				for k := range e.keys {
					if holders[k] > 0 {
						sharedSurvivals++
					}
				}
			}
		}
	}
	t.Logf("%d entries left the table, %d of their keys stayed held by another; %d sweep hits, %d all-hit searches, %d failed owners",
		evictions, sharedSurvivals, sweepHits, searchHits, failures)
	if evictions == 0 || sharedSurvivals == 0 || sweepHits == 0 || searchHits == 0 || failures == 0 {
		t.Fatal("the sequence never evicted, kept a shared key, hit, or failed an owner; the test is vacuous")
	}
}
