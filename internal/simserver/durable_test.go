package simserver_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// openDurable boots a durable server on dir with its HTTP front end.
func openDurable(t *testing.T, dir string) (*simserver.Server, *httptest.Server) {
	t.Helper()
	srv, err := simserver.Open(simserver.Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv)
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestDurableRestartReplay: a sweep journaled under -data-dir survives a
// full server restart — a cursored GET on the new process replays the
// original POST body byte-identically, and an alias spelling of the
// sweep still hits the (re-adopted) cache entry.
func TestDurableRestartReplay(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := openDurable(t, dir)

	generative, frozen := aliasSweeps(t, true)
	fresh, freshBody := postRaw(t, tsA.URL, generative)
	if got := fresh.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}
	id := fresh.Header.Get("X-Sweep-Id")
	tsA.Close()
	srvA.Close()

	srvB, tsB := openDurable(t, dir)
	defer func() {
		tsB.Close()
		srvB.Close()
	}()

	// Before anything adopts the journal, the status endpoint reports
	// the sweep as resumable rather than 404ing.
	resp, body := getRaw(t, tsB.URL+"/v1/sweeps/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status before adoption: HTTP %d: %s", resp.StatusCode, body)
	}
	var status wire.SweepStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Status != "resumable" {
		t.Fatalf("pre-adoption status = %q, want resumable", status.Status)
	}

	// The cursored GET is byte-identical to the original POST response.
	resp, replay := getRaw(t, tsB.URL+"/v1/sweeps/"+id+"?cursor=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursored GET: HTTP %d: %s", resp.StatusCode, replay)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("cursored GET X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(replay, freshBody) {
		t.Fatalf("replay after restart not byte-identical: %d vs %d bytes", len(replay), len(freshBody))
	}

	// An alias spelling POSTed to the restarted server hits too.
	cached, cachedBody := postRaw(t, tsB.URL, frozen)
	if got := cached.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("alias after restart X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cachedBody, freshBody) {
		t.Fatal("alias replay after restart not byte-identical")
	}

	if got := metric(t, tsB.URL, "taskalloc_disk_sweep_hits_total"); got != 1 {
		t.Fatalf("disk sweep hits = %g, want 1", got)
	}
	if got := metric(t, tsB.URL, "taskalloc_semantic_alias_hits_total"); got != 1 {
		t.Fatalf("semantic alias hits = %g, want 1", got)
	}
	if got := metric(t, tsB.URL, "taskalloc_persist_errors_total"); got != 0 {
		t.Fatalf("persist errors = %g, want 0", got)
	}
	journals := metric(t, tsB.URL, "taskalloc_store_journals")
	if diskBytes := metric(t, tsB.URL, "taskalloc_store_bytes"); journals == 0 || diskBytes == 0 {
		t.Fatalf("journal store empty after restart: %g journals, %g bytes", journals, diskBytes)
	}
}

// TestDurableCursorStitch: a client that read N result lines before
// losing its connection reconnects with ?cursor=N on a fresh process
// and stitches the two bodies into exactly the uninterrupted response —
// for NDJSON via the raw endpoint and the typed client, and for CSV at
// cursor 0.
func TestDurableCursorStitch(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := openDurable(t, dir)
	ctx := context.Background()

	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, fullBody := postRaw(t, tsA.URL, sweep)
	id := fresh.Header.Get("X-Sweep-Id")
	cA := client.New(tsA.URL, tsA.Client())
	fullCSV, _, err := cA.SubmitSweepCSV(ctx, sweep, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	srvA.Close()

	srvB, tsB := openDurable(t, dir)
	defer func() {
		tsB.Close()
		srvB.Close()
	}()

	// NDJSON: body = header line + one result line per cell; a cursored
	// response carries the header line (the resuming client drops it)
	// then the lines from the cursor on.
	lines := bytes.SplitAfter(fullBody, []byte("\n"))
	const cursor = 3
	resp, tail := getRaw(t, tsB.URL+"/v1/sweeps/"+id+"?cursor=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursored GET: HTTP %d: %s", resp.StatusCode, tail)
	}
	tailLines := bytes.SplitAfter(tail, []byte("\n"))
	var stitched []byte
	for _, l := range lines[:1+cursor] { // original header + first 3 cells
		stitched = append(stitched, l...)
	}
	for _, l := range tailLines[1:] { // resumed cells, header line dropped
		stitched = append(stitched, l...)
	}
	if !bytes.Equal(stitched, fullBody) {
		t.Fatalf("stitched stream differs from uninterrupted body:\n--- stitched\n%s--- full\n%s", stitched, fullBody)
	}

	// The typed client's resume: only the cells from the cursor on, in
	// order, with the truncation check against Jobs - cursor.
	cB := client.New(tsB.URL, tsB.Client())
	sub, err := cB.ResumeSweep(ctx, id, cursor, client.SubmitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Results) != len(sweep.Jobs)-cursor {
		t.Fatalf("resumed %d cells, want %d", len(sub.Results), len(sweep.Jobs)-cursor)
	}
	for i, res := range sub.Results {
		if res.Index != cursor+i {
			t.Fatalf("resumed line %d has index %d, want %d", i, res.Index, cursor+i)
		}
	}

	// A cursor past the end is a 400, not a truncated stream.
	if _, err := cB.ResumeSweep(ctx, id, len(sweep.Jobs)+1, client.SubmitOptions{}, nil); err == nil {
		t.Fatal("cursor past end did not error")
	}

	// CSV at cursor 0 is byte-identical to the POST ?format=csv body.
	resp, csvBody := getRaw(t, tsB.URL+"/v1/sweeps/"+id+"?cursor=0&format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV GET: HTTP %d: %s", resp.StatusCode, csvBody)
	}
	if !bytes.Equal(csvBody, fullCSV) {
		t.Fatal("CSV replay after restart not byte-identical")
	}
}

// frameEnds parses the journal's stable on-disk framing (8-byte magic,
// then [kind u8][len u32 LE][crc u32 LE][payload] frames) and returns
// the byte offset at the end of each complete frame — the crash points
// the torn-tail tests cut at.
func frameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	const magic, header = 8, 9
	if len(wal) < magic {
		t.Fatalf("journal too short: %d bytes", len(wal))
	}
	var ends []int
	off := magic
	for off+header <= len(wal) {
		n := int(binary.LittleEndian.Uint32(wal[off+1 : off+5]))
		end := off + header + n
		if end > len(wal) {
			break
		}
		off = end
		ends = append(ends, off)
	}
	return ends
}

// TestDurableResumeMatchesUninterrupted is the crash-consistency
// acceptance test at the HTTP layer: for journals cut at several crash
// points (commit frame written but unmarked, torn mid-record, header
// only, torn mid-header), a fresh server over the damaged directory
// serves the SAME bytes an uninterrupted run produced — resuming where
// the journal's valid prefix ends, simulating only the cells neither
// that prefix nor the job tier holds.
func TestDurableResumeMatchesUninterrupted(t *testing.T) {
	// Golden run: one durable server, never crashed.
	goldDir := t.TempDir()
	srvA, tsA := openDurable(t, goldDir)
	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, fullBody := postRaw(t, tsA.URL, sweep)
	id := fresh.Header.Get("X-Sweep-Id")
	tsA.Close()
	srvA.Close()

	wal, err := os.ReadFile(filepath.Join(goldDir, "sweeps", id[:2], id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, wal)
	// header + 6 records + commit = 8 complete frames
	if want := len(sweep.Jobs) + 2; len(ends) != want {
		t.Fatalf("journal has %d frames, want %d", len(ends), want)
	}

	// seed writes a damaged copy of the journal (cut at size, commit
	// marker withheld — the crash happened before the marker renamed in)
	// into a fresh data dir.
	seed := func(size int) string {
		dir := t.TempDir()
		sub := filepath.Join(dir, "sweeps", id[:2])
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, id+".wal"), wal[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	cases := []struct {
		name    string
		size    int
		resumes bool  // a valid journal prefix survives, so the POST resumes
		warm    []int // jobs an earlier sweep put in the job tier
	}{
		{"commit frame unmarked", len(wal), true, nil},
		{"torn mid-record", ends[3] + 5, true, nil},
		{"torn mid-record, tier warm past the prefix", ends[3] + 5, true, []int{4, 5}},
		{"header only", ends[0], true, nil},
		{"torn mid-header", 12, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := seed(tc.size)
			srv, ts := openDurable(t, dir)
			defer func() {
				ts.Close()
				srv.Close()
			}()
			if len(tc.warm) > 0 {
				warm := wire.Sweep{Version: wire.V1}
				for _, i := range tc.warm {
					warm.Jobs = append(warm.Jobs, sweep.Jobs[i])
				}
				postRaw(t, ts.URL, warm)
			}
			// The journal's whole frames past the header are the prefix
			// the resume replays; the rest of the sweep, less the warm
			// jobs, must simulate.
			prefix := -1
			for _, end := range ends {
				if end <= tc.size {
					prefix++
				}
			}
			prefix = min(max(prefix, 0), len(sweep.Jobs))
			before := scrape(t, ts.URL)
			resp, body := postRaw(t, ts.URL, sweep)
			after := scrape(t, ts.URL)
			const engineRuns = `taskalloc_stage_seconds_count{stage="engine_run"}`
			if runs, want := counterDelta(t, before, after, engineRuns), len(sweep.Jobs)-prefix-len(tc.warm); runs != want {
				t.Fatalf("resume ran %d simulations, want %d", runs, want)
			}
			if hits := counterDelta(t, before, after, `taskalloc_sweep_job_cache_total{outcome="hit"}`); hits != len(tc.warm) {
				t.Fatalf("sweep job-cache hits = %d, want %d", hits, len(tc.warm))
			}
			if !bytes.Equal(body, fullBody) {
				t.Fatalf("recover-then-serve differs from never-crashed run:\n--- recovered\n%s--- golden\n%s", body, fullBody)
			}
			disposition := resp.Header.Get("X-Cache")
			if tc.resumes {
				if disposition != "resume" {
					t.Fatalf("X-Cache = %q, want resume", disposition)
				}
				if got := metric(t, ts.URL, "taskalloc_disk_resumes_total"); got != 1 {
					t.Fatalf("disk resumes = %g, want 1", got)
				}
			} else if disposition != "miss" {
				t.Fatalf("X-Cache = %q, want miss (journal unrecoverable)", disposition)
			}

			// After the resume (or fresh run) recommitted the journal, a
			// second restart serves the whole sweep from disk.
			ts.Close()
			srv.Close()
			srv2, ts2 := openDurable(t, dir)
			defer func() {
				ts2.Close()
				srv2.Close()
			}()
			resp2, body2 := postRaw(t, ts2.URL, sweep)
			if got := resp2.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("post-recommit restart X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(body2, fullBody) {
				t.Fatal("post-recommit replay not byte-identical")
			}
		})
	}
}

// counterDelta is how far the exposition sample named by prefix (a
// counter, or a histogram's _count) moved between two scrapes; an
// absent sample reads 0.
func counterDelta(t *testing.T, before, after []byte, prefix string) int {
	t.Helper()
	value := func(body []byte) int {
		v := sampleValue(body, prefix)
		if v == "" {
			return 0
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("sample %s = %q: %v", prefix, v, err)
		}
		return int(f)
	}
	return value(after) - value(before)
}

// TestDurableResumeStitchMidStream: reconnecting with a cursor INTO an
// incomplete journal replays the checkpointed prefix from disk, runs
// the rest, and stitches byte-identically with the bytes read before
// the crash.
func TestDurableResumeStitchMidStream(t *testing.T) {
	goldDir := t.TempDir()
	srvA, tsA := openDurable(t, goldDir)
	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, fullBody := postRaw(t, tsA.URL, sweep)
	id := fresh.Header.Get("X-Sweep-Id")
	tsA.Close()
	srvA.Close()

	wal, err := os.ReadFile(filepath.Join(goldDir, "sweeps", id[:2], id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, wal)

	// Crash with 4 of 6 records checkpointed; the client had read 2
	// result lines.
	dir := t.TempDir()
	sub := filepath.Join(dir, "sweeps", id[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, id+".wal"), wal[:ends[4]], 0o644); err != nil {
		t.Fatal(err)
	}
	srvB, tsB := openDurable(t, dir)
	defer func() {
		tsB.Close()
		srvB.Close()
	}()

	const cursor = 2
	resp, tail := getRaw(t, tsB.URL+"/v1/sweeps/"+id+"?cursor=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursored GET: HTTP %d: %s", resp.StatusCode, tail)
	}
	if got := resp.Header.Get("X-Cache"); got != "resume" {
		t.Fatalf("X-Cache = %q, want resume", got)
	}
	lines := bytes.SplitAfter(fullBody, []byte("\n"))
	tailLines := bytes.SplitAfter(tail, []byte("\n"))
	var stitched []byte
	for _, l := range lines[:1+cursor] {
		stitched = append(stitched, l...)
	}
	for _, l := range tailLines[1:] {
		stitched = append(stitched, l...)
	}
	if !bytes.Equal(stitched, fullBody) {
		t.Fatalf("stitched resume differs from uninterrupted body:\n--- stitched\n%s--- full\n%s", stitched, fullBody)
	}
	if got := metric(t, tsB.URL, "taskalloc_disk_resumes_total"); got != 1 {
		t.Fatalf("disk resumes = %g, want 1", got)
	}
}

// TestDurableEvictedJournalIs404: once the store evicts a sweep's
// journal past -data-bytes, and the memory cache has evicted the sweep
// too, neither GET advertises it: the summary GET and the cursored GET
// both answer 404, because the store's index is the one record of
// on-disk sweeps.
//
// A journal whose file vanished behind the store's back is forgotten
// the same way once a request finds it missing.
func TestDurableEvictedJournalIs404(t *testing.T) {
	dir := t.TempDir()
	opts := simserver.Options{Workers: 2, DataDir: dir, DataBytes: 1, CacheEntries: 1}
	srv, err := simserver.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	a, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := wire.Sweep{Version: wire.V1, Jobs: a.Jobs[:2]}
	respA, _ := postRaw(t, ts.URL, a)
	respB, _ := postRaw(t, ts.URL, b) // evicts A from the store and from memory
	idA, idB := respA.Header.Get("X-Sweep-Id"), respB.Header.Get("X-Sweep-Id")
	wal := func(id string) string { return filepath.Join(dir, "sweeps", id[:2], id+".wal") }
	if _, err := os.Stat(wal(idA)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sweep A's journal was not evicted: %v", err)
	}
	journals := metric(t, ts.URL, "taskalloc_store_journals")
	if entries := metric(t, ts.URL, "taskalloc_sweep_cache_entries"); journals != 1 || entries != 1 {
		t.Fatalf("disk journals %g, cache entries %g; want 1 and 1", journals, entries)
	}
	for _, query := range []string{"", "?cursor=0"} {
		resp, body := getRaw(t, ts.URL+"/v1/sweeps/"+idA+query)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/sweeps/{A}%s after eviction: HTTP %d %s, want 404", query, resp.StatusCode, body)
		}
	}
	ts.Close()
	srv.Close()

	// Restart (with room for B's journal) so B lives only on disk, then
	// delete its log: the cursored GET finds it gone, and the summary GET
	// must not still offer it.
	opts.DataBytes = 0
	srv, err = simserver.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts = httptest.NewServer(srv)
	defer ts.Close()
	if err := os.Remove(wal(idB)); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"?cursor=0", ""} {
		resp, body := getRaw(t, ts.URL+"/v1/sweeps/"+idB+query)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/sweeps/{B}%s after its log vanished: HTTP %d %s, want 404", query, resp.StatusCode, body)
		}
	}
}

// TestTenantAuthEndToEnd covers the tenant layer through the typed
// client: open endpoints stay open, missing/unknown tokens are typed
// 401s, the cumulative job quota is a typed 403, and /v1/metrics
// reports per-tenant counters.
func TestTenantAuthEndToEnd(t *testing.T) {
	srv, err := simserver.Open(simserver.Options{
		Workers: 2,
		Tenants: []simserver.TenantConfig{
			{Name: "acme", Token: "sekret-acme", MaxJobs: 12},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()

	// healthz and version stay open; work-carrying endpoints do not.
	anon := client.New(ts.URL, ts.Client())
	if err := anon.Healthz(ctx); err != nil {
		t.Fatalf("anonymous healthz: %v", err)
	}
	if _, err := anon.Version(ctx); err != nil {
		t.Fatalf("anonymous version: %v", err)
	}
	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = anon.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil)
	var authErr *client.AuthError
	if !errors.As(err, &authErr) {
		t.Fatalf("anonymous submit error = %v, want AuthError", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("AuthError does not unwrap to a 401 APIError: %v", err)
	}
	if _, err := anon.WithToken("wrong").SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil); !errors.As(err, &authErr) {
		t.Fatalf("bad-token submit error = %v, want AuthError", err)
	}

	// Two 6-job sweeps exhaust the 12-job quota; the third distinct
	// sweep is a typed quota rejection.
	auth := anon.WithToken("sekret-acme")
	if _, err := auth.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil); err != nil {
		t.Fatalf("first authorized submit: %v", err)
	}
	sweep2 := sweep
	sweep2.Jobs = append([]wire.Job(nil), sweep.Jobs...)
	sweep2.Jobs[0].Config.Seed = 77
	if _, err := auth.SubmitSweep(ctx, sweep2, client.SubmitOptions{}, nil); err != nil {
		t.Fatalf("second authorized submit: %v", err)
	}
	sweep3 := sweep
	sweep3.Jobs = append([]wire.Job(nil), sweep.Jobs...)
	sweep3.Jobs[0].Config.Seed = 78
	_, err = auth.SubmitSweep(ctx, sweep3, client.SubmitOptions{}, nil)
	var quotaErr *client.QuotaError
	if !errors.As(err, &quotaErr) {
		t.Fatalf("over-quota submit error = %v, want QuotaError", err)
	}
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("QuotaError does not unwrap to a 403 APIError: %v", err)
	}

	// The unauthenticated exposition reports the tenant's counters by
	// name, never its token.
	body := scrape(t, ts.URL)
	jobs := sampleValue(body, `taskalloc_tenant_jobs_submitted_total{tenant="acme"} `)
	rejected := sampleValue(body, `taskalloc_tenant_quota_rejected_total{tenant="acme"} `)
	requests := sampleValue(body, `taskalloc_tenant_requests_total{tenant="acme"} `)
	if jobs != "12" || rejected != "1" || requests != "3" {
		t.Fatalf("tenant acme: %q jobs, %q quota rejections, %q requests; want 12, 1, 3", jobs, rejected, requests)
	}
	if bytes.Contains(body, []byte("sekret-acme")) {
		t.Fatal("exposition leaks the tenant token")
	}
}

// TestTenantQuotaChargesBisect: a bisect is charged its evaluation
// budget against the tenant job quota at admission — max_evals, or the
// wire.MaxBisectEvals default for 0 — whatever its cache disposition:
// the endpoints-only search below runs two cells and is charged 128.
func TestTenantQuotaChargesBisect(t *testing.T) {
	srv, err := simserver.Open(simserver.Options{
		Workers: 2,
		Tenants: []simserver.TenantConfig{
			{Name: "acme", Token: "sekret-acme", MaxJobs: wire.MaxBisectEvals + 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	auth := client.New(ts.URL, ts.Client()).WithToken("sekret-acme")

	cell := wire.Job{Rounds: 50, Config: wire.Config{Ants: 50, Demands: []int{10, 10}, Seed: 3, Shards: 1}}
	req := wire.BisectRequest{Version: wire.V1, Job: cell,
		GammaLo: 0.01, GammaHi: 0.05, TargetBand: 1e9} // converges on the endpoints
	if resp, err := auth.Bisect(ctx, req); err != nil || resp.Evals != 2 {
		t.Fatalf("first bisect: %+v, %v; want 2 evals", resp, err)
	}
	sweep := func(n int) error {
		jobs := make([]wire.Job, n)
		for i := range jobs {
			jobs[i] = cell
			jobs[i].Config.Seed = uint64(100*n + i)
		}
		_, err := auth.SubmitSweep(ctx, wire.Sweep{Version: wire.V1, Jobs: jobs}, client.SubmitOptions{}, nil)
		return err
	}
	var quotaErr *client.QuotaError
	if err := sweep(3); !errors.As(err, &quotaErr) ||
		quotaErr.Message != "job quota exceeded (3 jobs over tenant limit)" {
		t.Fatalf("3-job sweep after a default-budget bisect: %v, want the quota 403", err)
	}
	if err := sweep(2); err != nil {
		t.Fatalf("2-job sweep filling the quota: %v", err)
	}
	if _, err := auth.Bisect(ctx, req); !errors.As(err, &quotaErr) ||
		quotaErr.StatusCode != http.StatusForbidden ||
		quotaErr.Message != "job quota exceeded (128 jobs over tenant limit)" {
		t.Fatalf("repeat bisect past the quota: %v, want the quota 403", err)
	}
	if jobs := sampleValue(scrape(t, ts.URL), `taskalloc_tenant_jobs_submitted_total{tenant="acme"} `); jobs != "130" {
		t.Errorf("tenant acme charged %q jobs, want 130", jobs)
	}
}

// TestTenantQuotaSkipsUndecodable: admission decodes every config, so a
// document that does not decode is rejected before the quota charge and
// the cache lookup. With a tenant quota, a 4-job sweep whose job 2 has
// an unknown algorithm and a bisect whose template has one each get
// their 400, and neither is charged to the tenant or counted as a sweep
// request.
func TestTenantQuotaSkipsUndecodable(t *testing.T) {
	srv, err := simserver.Open(simserver.Options{
		Workers: 1,
		Tenants: []simserver.TenantConfig{{Name: "acme", Token: "sekret-acme", MaxJobs: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	auth := client.New(ts.URL, ts.Client()).WithToken("sekret-acme")

	cell := wire.Job{Rounds: 50, Config: wire.Config{Ants: 50, Demands: []int{10, 10}, Shards: 1}}
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 4; i++ {
		j := cell
		j.Config.Seed = uint64(i + 1)
		sweep.Jobs = append(sweep.Jobs, j)
	}
	sweep.Jobs[2].Config.Algorithm = "bogus"
	req := wire.BisectRequest{Version: wire.V1, Job: cell, GammaLo: 0.01, GammaHi: 0.05, TargetBand: 1e9}
	req.Job.Config.Algorithm = "x"

	var apiErr *client.APIError
	_, err = auth.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
		apiErr.Message != `wire: jobs[2]: wire: unknown algorithm "bogus"` {
		t.Fatalf("typo sweep: %v, want the decoder's 400", err)
	}
	_, err = auth.Bisect(ctx, req)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
		apiErr.Message != `wire: unknown algorithm "x"` {
		t.Fatalf("typo bisect: %v, want the decoder's 400", err)
	}
	body := scrape(t, ts.URL)
	if jobs := sampleValue(body, `taskalloc_tenant_jobs_submitted_total{tenant="acme"} `); jobs != "0" {
		t.Errorf("tenant acme charged %q jobs, want 0", jobs)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "taskalloc_sweep_requests_total{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("%s, want 0", line)
		}
	}
}
