package simserver

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"taskalloc/internal/store"
	"taskalloc/internal/wire"
)

// TestRateLimitTokenBucket drives the per-tenant token bucket on an
// injected clock: the burst is admitted, the next request is a 429
// carrying Retry-After and a machine-readable retry_after_ms, and one
// refill interval later the tenant is admitted again.
func TestRateLimitTokenBucket(t *testing.T) {
	srv, err := Open(Options{Tenants: []TenantConfig{
		{Name: "acme", Token: "tok", RatePerSec: 1, Burst: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	now := time.Unix(1_700_000_000, 0)
	srv.nowFn = func() time.Time { return now }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Any authenticated endpoint exercises the bucket; an unknown sweep
	// id is admitted (past the limiter) and then 404s.
	get := func() (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/deadbeef", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	for i := 0; i < 2; i++ {
		resp, body := get()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("burst request %d: HTTP %d (%s), want 404", i, resp.StatusCode, body)
		}
	}
	resp, body := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("429 body is not an ErrorBody: %v (%s)", err, body)
	}
	if eb.Kind != "rate_limited" || eb.RetryAfterMS != 1000 {
		t.Fatalf("429 body = %+v, want rate_limited with retry_after_ms 1000", eb)
	}

	now = now.Add(time.Second) // one token refilled
	if resp, body := get(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-refill request: HTTP %d (%s), want 404", resp.StatusCode, body)
	}

	requests := srv.metrics.tenantRequests.With("acme").Value()
	limited := srv.metrics.tenantRateLimited.With("acme").Value()
	if requests != 3 || limited != 1 {
		t.Fatalf("tenant requests %d, rate-limited %d; want 3 admitted, 1 rate-limited", requests, limited)
	}
}

// smallBisectRequest is a cheap deterministic bisect request for the
// disk-tier tests.
func smallBisectRequest() wire.BisectRequest {
	return wire.BisectRequest{
		Version: wire.V1,
		Job: wire.Job{Rounds: 150, Config: wire.Config{
			Ants: 120, Demands: []int{40, 40}, Seed: 3, Shards: 1,
		}},
		GammaLo:    0.01,
		GammaHi:    0.05,
		TargetBand: 0.5,
		MaxEvals:   8,
	}
}

// TestBisectDiskCacheWarmAcrossRestart: bisect cell results journaled
// by the search serve a repeat bisection on a FRESH process through the
// store's key index — every cell cached, promoted through
// JobCacheDiskHits, response X-Cache hit, reports identical to the
// first run's.
func TestBisectDiskCacheWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srvA, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	first, code, msg := postBisect(t, tsA, smallBisectRequest())
	if first == nil {
		t.Fatalf("first bisect: HTTP %d: %s", code, msg)
	}
	if first.Evals == 0 || first.CacheHits != 0 {
		t.Fatalf("first bisect evals=%d hits=%d, want fresh evaluations", first.Evals, first.CacheHits)
	}
	tsA.Close()
	srvA.Close()

	srvB, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	again, code, msg := postBisect(t, tsB, smallBisectRequest())
	if again == nil {
		t.Fatalf("repeat bisect: HTTP %d: %s", code, msg)
	}
	if again.CacheHits != again.Evals || again.Evals != first.Evals {
		t.Fatalf("repeat bisect evals=%d hits=%d, want all %d from cache", again.Evals, again.CacheHits, first.Evals)
	}
	if len(again.Cells) != len(first.Cells) {
		t.Fatalf("repeat bisect has %d cells, want %d", len(again.Cells), len(first.Cells))
	}
	for i := range first.Cells {
		if again.Cells[i].Gamma != first.Cells[i].Gamma || again.Cells[i].JobHash != first.Cells[i].JobHash {
			t.Fatalf("cell %d identity diverged across restart", i)
		}
		if !again.Cells[i].Cached {
			t.Fatalf("cell %d (γ=%g) missed the warm disk tier", i, again.Cells[i].Gamma)
		}
		if !reflect.DeepEqual(again.Cells[i].Report, first.Cells[i].Report) {
			t.Fatalf("cell %d report diverged across restart", i)
		}
	}
	if hits := srvB.metrics.jobCacheDiskHits.Value(); hits == 0 || hits != uint64(first.Evals) {
		t.Fatalf("job cache disk hits = %d, want %d", hits, first.Evals)
	}
	if errs := srvB.metrics.persistErrors.Value(); errs != 0 {
		t.Fatalf("persist errors = %d, want 0", errs)
	}
}

// TestDurableResumeTimesRender: a resumed sweep times every cell it
// streams in the render stage, as a fresh POST does — a prefix cell
// replayed from the journal included — while a replay of the completed
// sweep stays untimed.
func TestDurableResumeTimesRender(t *testing.T) {
	sweep := reuseGrid()
	goldDir := t.TempDir()
	srvA, err := Open(Options{Workers: 2, DataDir: goldDir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	resp, full := postSweep(t, tsA.URL, sweep, "")
	id := resp.Header.Get("X-Sweep-Id")
	tsA.Close()
	srvA.Close()
	gold, err := store.Open(filepath.Join(goldDir, "sweeps"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gold.Load(id)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint a 2-cell prefix, as a crash after two cells leaves it.
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "sweeps"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(id, rec.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range rec.Records[:2] {
		if err := j.Append(rec.Keys[i], raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get := func(cursor string) (string, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "?cursor=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET ?cursor=%s: HTTP %d %s (%v)", cursor, resp.StatusCode, body, err)
		}
		return resp.Header.Get("X-Cache"), body
	}

	render := srv.metrics.stageRender
	before := render.Count()
	disposition, tail := get("1")
	if disposition != "resume" {
		t.Fatalf("X-Cache = %q, want resume", disposition)
	}
	// The header line, then cells 1 onward.
	lines := bytes.SplitAfter(full, []byte("\n"))
	want := append(append([]byte(nil), lines[0]...), bytes.Join(lines[2:], nil)...)
	if !bytes.Equal(tail, want) {
		t.Fatalf("resumed tail differs from the uninterrupted body:\n--- tail\n%s--- full\n%s", tail, full)
	}
	if got, want := render.Count()-before, uint64(len(sweep.Jobs)-1); got != want {
		t.Fatalf("resume observed %d render timings, want one per streamed cell (%d)", got, want)
	}

	before = render.Count()
	if disposition, body := get("0"); disposition != "hit" || !bytes.Equal(body, full) {
		t.Fatalf("replay of the completed sweep: X-Cache %q, body equal %v", disposition, bytes.Equal(body, full))
	}
	if got := render.Count() - before; got != 0 {
		t.Fatalf("replay of a completed sweep observed %d render timings, want 0", got)
	}
}

// onlyJournalFiles fails unless every file under a durable data
// directory is a journal log, a commit marker, or the journal store's
// commit manifest.
func onlyJournalFiles(t *testing.T, dir string) {
	t.Helper()
	manifest := filepath.Join(dir, "sweeps", "commits")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext != ".wal" && ext != ".ok" && path != manifest {
			t.Errorf("data directory holds %s; want only .wal and .ok files and the commit manifest", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJournalIndexWarmAcrossRestart: after a restart, the journals' key
// index serves the cells a committed sweep journal holds to a new grid
// that shares them, without that sweep being replayed first. A durable
// server journals G (5 cells) and restarts; G′ (3 of G's cells plus 1
// new one) then takes 3 job-tier hits, all from disk, misses 1, runs 1
// simulation, and renders the body a fresh server renders. The same
// holds when G's journal was interrupted, then resumed and committed:
// the recovered prefix is indexed with the cells run after it.
func TestJournalIndexWarmAcrossRestart(t *testing.T) {
	g := wire.Sweep{Version: wire.V1}
	for _, gamma := range []float64{0.01, 0.02, 0.03, 0.04, 0.05} {
		g.Jobs = append(g.Jobs, reuseJob(gamma, 4))
	}
	g2 := wire.Sweep{Version: wire.V1, Jobs: []wire.Job{g.Jobs[0], reuseJob(0.06, 4), g.Jobs[1], g.Jobs[3]}}
	ref := New(Options{Workers: 2})
	rts := httptest.NewServer(ref)
	_, want := postSweep(t, rts.URL, g2, "")
	rts.Close()
	ref.Close()

	// serveG2 opens a server on dir, as a restart does, and posts G′.
	serveG2 := func(t *testing.T, dir string) {
		t.Helper()
		srv, err := Open(Options{Workers: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, got := postSweep(t, ts.URL, g2, "")
		if d := resp.Header.Get("X-Cache"); d != "miss" {
			t.Fatalf("X-Cache = %q, want miss (G′ itself is new)", d)
		}
		hits, misses := srv.metrics.sweepJobHits.Value(), srv.metrics.sweepJobMisses.Value()
		disk, runs := srv.metrics.jobCacheDiskHits.Value(), srv.metrics.stageEngineRun.Count()
		if hits != 3 || disk != 3 || misses != 1 || runs != 1 {
			t.Fatalf("job tier hits %d (disk %d), misses %d, simulations %d; want 3 (3), 1, 1",
				hits, disk, misses, runs)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("G′ after restart differs from a fresh server's body:\n--- restart\n%s--- fresh\n%s", got, want)
		}
		if errs := srv.metrics.persistErrors.Value(); errs != 0 {
			t.Fatalf("persist errors = %d, want 0", errs)
		}
		onlyJournalFiles(t, dir)
	}
	// journalG runs G to a committed journal under dir.
	journalG := func(t *testing.T, dir string) string {
		t.Helper()
		srv, err := Open(Options{Workers: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, _ := postSweep(t, ts.URL, g, "")
		return resp.Header.Get("X-Sweep-Id")
	}

	t.Run("committed", func(t *testing.T) {
		dir := t.TempDir()
		journalG(t, dir)
		serveG2(t, dir)
	})

	t.Run("resumed", func(t *testing.T) {
		goldDir := t.TempDir()
		id := journalG(t, goldDir)
		gold, err := store.Open(filepath.Join(goldDir, "sweeps"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := gold.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		// A 2-cell prefix holding G′'s first two shared cells, as a crash
		// after two cells leaves it.
		dir := t.TempDir()
		st, err := store.Open(filepath.Join(dir, "sweeps"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := st.Create(id, rec.Header)
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range rec.Records[:2] {
			if err := j.Append(rec.Keys[i], raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		srv, err := Open(Options{Workers: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "?cursor=0")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ts.Close()
		srv.Close()
		if d := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || d != "resume" {
			t.Fatalf("resume: HTTP %d, X-Cache %q; want 200 resume", resp.StatusCode, d)
		}
		serveG2(t, dir)
	})
}

// TestSearchJournalIsNotASweep: a bisect search's journal shares the
// store with sweep journals, but no sweep route reads or removes it —
// GET /v1/sweeps/{id} naming it answers 404, streamed or not, before
// and after a restart, and the journal still serves every cell after
// that restart. A search that died before its journal committed left it
// incomplete: the next run of the search continues that journal and
// commits it with no persist error, and the run after a further restart
// takes every cell from disk.
func TestSearchJournalIsNotASweep(t *testing.T) {
	req := smallBisectRequest()
	bisectOn := func(t *testing.T, dir string, check func(srv *Server, ts *httptest.Server, resp *wire.BisectResponse)) {
		t.Helper()
		srv, err := Open(Options{Workers: 2, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, code, msg := postBisect(t, ts, req)
		if resp == nil {
			t.Fatalf("bisect: HTTP %d: %s", code, msg)
		}
		if errs := srv.metrics.persistErrors.Value(); errs != 0 {
			t.Fatalf("persist errors = %d, want 0", errs)
		}
		check(srv, ts, resp)
	}
	notASweep := func(t *testing.T, ts *httptest.Server, jid string) {
		t.Helper()
		for _, path := range []string{"/v1/sweeps/" + jid, "/v1/sweeps/" + jid + "?cursor=0"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
			}
		}
	}
	fromDisk := func(t *testing.T, srv *Server, resp *wire.BisectResponse, evals int) {
		t.Helper()
		if resp.Evals != evals || resp.CacheHits != evals || srv.metrics.jobCacheDiskHits.Value() != uint64(evals) {
			t.Fatalf("evals %d, cache hits %d, disk hits %d; want all %d from disk",
				resp.Evals, resp.CacheHits, srv.metrics.jobCacheDiskHits.Value(), evals)
		}
	}

	dir := t.TempDir()
	var first *wire.BisectResponse
	var jid string
	bisectOn(t, dir, func(srv *Server, ts *httptest.Server, resp *wire.BisectResponse) {
		first, jid = resp, resp.ID+searchJournalSuffix
		if exists, complete := srv.store.Lookup(jid); !exists || !complete {
			t.Fatalf("search journal: exists %v, complete %v; want a committed journal", exists, complete)
		}
		notASweep(t, ts, jid)
	})
	if first.Evals == 0 || first.CacheHits != 0 {
		t.Fatalf("first bisect evals=%d hits=%d, want fresh evaluations", first.Evals, first.CacheHits)
	}
	bisectOn(t, dir, func(srv *Server, ts *httptest.Server, resp *wire.BisectResponse) {
		fromDisk(t, srv, resp, first.Evals)
		notASweep(t, ts, jid)
	})
	// Neither restart's GETs touched the journal.
	bisectOn(t, dir, func(srv *Server, _ *httptest.Server, resp *wire.BisectResponse) {
		fromDisk(t, srv, resp, first.Evals)
	})
	onlyJournalFiles(t, dir)

	// The search died after journaling two cells: no commit.
	gold, err := store.Open(filepath.Join(dir, "sweeps"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gold.Load(jid)
	if err != nil {
		t.Fatal(err)
	}
	dead := t.TempDir()
	st, err := store.Open(filepath.Join(dead, "sweeps"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(jid, rec.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range rec.Records[:2] {
		if err := j.Append(rec.Keys[i], raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	bisectOn(t, dead, func(srv *Server, _ *httptest.Server, resp *wire.BisectResponse) {
		if resp.Evals != first.Evals || resp.CacheHits != 0 {
			t.Fatalf("rerun after a dead search: evals %d, hits %d; want %d fresh", resp.Evals, resp.CacheHits, first.Evals)
		}
		if exists, complete := srv.store.Lookup(jid); !exists || !complete {
			t.Fatalf("rerun left the search journal exists %v, complete %v; want committed", exists, complete)
		}
	})
	bisectOn(t, dead, func(srv *Server, _ *httptest.Server, resp *wire.BisectResponse) {
		fromDisk(t, srv, resp, first.Evals)
	})
	onlyJournalFiles(t, dead)
}
