package simserver

import (
	"bytes"
	"encoding/json"
	"io"
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
// disk-cache tests.
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

// TestBisectDiskCacheWarmAcrossRestart: bisect cell results spilled to
// the disk job cache serve a repeat bisection on a FRESH process — every
// cell cached, promoted through JobCacheDiskHits, response X-Cache hit,
// reports identical to the first run's.
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
			t.Fatalf("cell %d (γ=%g) missed the warm disk cache", i, again.Cells[i].Gamma)
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
	for _, raw := range rec.Records[:2] {
		if err := j.Append(raw); err != nil {
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
