package simserver_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"taskalloc"
	"taskalloc/internal/goldencases"
	"taskalloc/internal/scenario"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// spaces is an endless reader of JSON whitespace: the padding the body
// probes stream instead of allocating.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// testGrid builds a small deterministic (γ × seed) grid in the
// cmd/sweep Meta convention. Shards > 1 so the sweep exercises the
// shared worker pool.
func testGrid(t *testing.T, shards int) []sweeprun.Job {
	t.Helper()
	sin, err := scenario.NewSinusoid([]int{40, 60}, []float64{0.3, 0.3}, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sin, 160)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []sweeprun.Job
	for _, gamma := range []string{"0.03", "0.0625"} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := 0.03
			if gamma == "0.0625" {
				g = 0.0625
			}
			jobs = append(jobs, sweeprun.Job{
				Meta: []string{"gamma", gamma, "sinusoid", itoa(seed)},
				Config: taskalloc.Config{
					Ants: 240, Demand: frozen, Gamma: g, Seed: seed, Shards: shards,
					Noise: taskalloc.SigmoidNoise(0.02), BurnIn: 50,
				},
				Rounds: 150,
			})
		}
	}
	return jobs
}

func itoa(u uint64) string { return string('0' + rune(u)) }

func newTestService(t *testing.T, opts simserver.Options) (*simserver.Server, *client.Client, func()) {
	t.Helper()
	srv := simserver.New(opts)
	hs := httptest.NewServer(srv)
	c := client.New(hs.URL, hs.Client())
	return srv, c, func() {
		hs.Close()
		srv.Close()
	}
}

// TestSubmitStreamAndCache is the cache-correctness acceptance test:
// identical re-submissions are served from cache with byte-identical
// bodies, at any worker count.
func TestSubmitStreamAndCache(t *testing.T) {
	_, c, done := newTestService(t, simserver.Options{})
	defer done()
	ctx := context.Background()

	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	first, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	if first.Header.ID == "" || first.Header.Jobs != len(sweep.Jobs) {
		t.Fatalf("bad stream header %+v", first.Header)
	}
	for i, res := range first.Results {
		if res.Err != "" || res.Report == nil {
			t.Fatalf("cell %d failed: %q", i, res.Err)
		}
		if res.Index != i {
			t.Fatalf("stream out of order: line %d has index %d", i, res.Index)
		}
	}

	// Re-submission (different worker count, different JSON key order
	// via re-marshal) is served from cache, byte-identically.
	csvFresh, cached, err := c.SubmitSweepCSV(ctx, sweep, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second submission missed the cache")
	}
	for _, workers := range []int{2, 5} {
		again, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("workers=%d resubmission missed the cache", workers)
		}
		if len(again.Results) != len(first.Results) {
			t.Fatalf("cached stream has %d results, want %d", len(again.Results), len(first.Results))
		}
		for i := range first.Results {
			if !reflect.DeepEqual(again.Results[i].Report, first.Results[i].Report) {
				t.Fatalf("cached cell %d diverged", i)
			}
		}
		csvAgain, cached, err := c.SubmitSweepCSV(ctx, sweep, client.SubmitOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !cached || !bytes.Equal(csvFresh, csvAgain) {
			t.Fatalf("cached CSV not byte-identical (cached=%v)", cached)
		}
	}

	// A semantically different grid (one seed changed) misses.
	sweep2, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sweep2.Jobs[0].Config.Seed = 99
	other, err := c.SubmitSweep(ctx, sweep2, client.SubmitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("mutated grid hit the cache")
	}
	if other.Header.ID == first.Header.ID {
		t.Fatal("mutated grid got the same sweep ID")
	}
}

// TestHTTPCSVMatchesDirectSweep is the cross-layer acceptance test: a
// sweep over HTTP produces bytes identical to the grid run directly
// through the renderer cmd/sweep uses, at ≥ 2 worker counts.
func TestHTTPCSVMatchesDirectSweep(t *testing.T) {
	_, c, done := newTestService(t, simserver.Options{})
	defer done()
	ctx := context.Background()

	jobs := testGrid(t, 1)
	var direct bytes.Buffer
	if err := sweeprun.WriteCSV(&direct, jobs, sweeprun.Options{Workers: 1}, sweeprun.CSVOptions{}); err != nil {
		t.Fatal(err)
	}

	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, _, err := c.SubmitSweepCSV(ctx, sweep, client.SubmitOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), got) {
			t.Fatalf("workers=%d: HTTP CSV differs from direct run\n--- direct\n%s--- http\n%s",
				workers, direct.String(), got)
		}
	}
}

// TestGoldenTrajectoriesOverHTTP streams the golden corpus through the
// service and byte-compares every trajectory against testdata/golden —
// the in-process version of the CI smoke.
func TestGoldenTrajectoriesOverHTTP(t *testing.T) {
	_, c, done := newTestService(t, simserver.Options{})
	defer done()

	cases := goldencases.All()
	sweep := wire.Sweep{Version: wire.V1}
	for _, gc := range cases {
		cfg, err := gc.Config()
		if err != nil {
			t.Fatal(err)
		}
		wcfg, err := wire.FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:       []string{gc.Name},
			Rounds:     gc.Rounds,
			Trajectory: true,
			Config:     wcfg,
		})
	}
	sub, err := c.SubmitSweep(context.Background(), sweep, client.SubmitOptions{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range sub.Results {
		name := cases[i].Name
		if res.Err != "" {
			t.Fatalf("%s: %s", name, res.Err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(res.Trajectory), want) {
			t.Errorf("%s: streamed trajectory differs from testdata/golden", name)
		}
	}
}

// TestGetSweep covers the summary endpoint.
func TestGetSweep(t *testing.T) {
	_, c, done := newTestService(t, simserver.Options{})
	defer done()
	ctx := context.Background()

	if _, err := c.GetSweep(ctx, "nope"); err == nil {
		t.Fatal("unknown sweep id did not 404")
	}
	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.GetSweep(ctx, sub.Header.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.Status != "done" || status.Jobs != len(sweep.Jobs) || status.Failed != 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.Summary == nil || status.Summary.Jobs != len(sweep.Jobs) {
		t.Fatalf("summary = %+v", status.Summary)
	}
	if len(status.Results) != len(sweep.Jobs) || status.Results[0].Report == nil {
		t.Fatalf("results = %+v", status.Results)
	}
}

// TestOpsEndpoints covers healthz/version and submission validation.
func TestOpsEndpoints(t *testing.T) {
	srv, c, done := newTestService(t, simserver.Options{})
	defer done()
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	// healthz is liveness only. Its exact body — after traffic, and
	// without a token on a server with tenants — carries no counter,
	// tenant name or token: /v1/metrics is the counters' one export.
	healthz := func(base string) {
		t.Helper()
		const want = `{"status":"ok"}` + "\n"
		if resp, body := getRaw(t, base+"/v1/healthz"); resp.StatusCode != http.StatusOK || string(body) != want {
			t.Errorf("GET /v1/healthz: HTTP %d %q, want 200 %q", resp.StatusCode, body, want)
		}
	}
	tenanted := simserver.New(simserver.Options{
		Tenants: []simserver.TenantConfig{{Name: "acme", Token: "sekrit"}},
	})
	tenantHS, tenantClient, tenantDone := newHTTPService(t, tenanted)
	defer tenantDone()
	if _, err := tenantClient.WithToken("sekrit").GetSweep(ctx, "nope"); err == nil {
		t.Fatal("expected a 404 for an unknown sweep")
	}
	healthz(tenantHS.URL)
	v, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v["wire"] != wire.V1 {
		t.Fatalf("version = %v", v)
	}

	// Malformed submissions are 400s.
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for name, body := range map[string]string{
		"bad json":    `{`,
		"bad version": `{"version":"v0","jobs":[]}`,
		"bad schedule": `{"version":"taskalloc/v1","jobs":[{"rounds":10,"config":{
			"ants":10,"schedule":{"kind":"wat"}}}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/sweeps?format=xml", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}

	// Oversized submissions are refused before the decoder materializes
	// them: the probe is one byte past wire.MaxBodyBytes, whitespace
	// padding streamed rather than allocated.
	head, tail := `{"version":"taskalloc/v1","jobs":[`, `]}`
	big := io.MultiReader(strings.NewReader(head),
		io.LimitReader(spaces{}, wire.MaxBodyBytes+1-int64(len(head)+len(tail))),
		strings.NewReader(tail))
	resp, err = http.Post(hs.URL+"/v1/sweeps", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Compute bounds: grids over wire.MaxJobs and cells over
	// wire.MaxCellRounds are refused at admission.
	cell := wire.Job{Rounds: 10, Config: wire.Config{Ants: 10, Demands: []int{2}}}
	long := cell
	long.Rounds = wire.MaxCellRounds + 1
	for _, tc := range []struct {
		name string
		jobs []wire.Job
		code int
		msg  string
	}{
		{"over-MaxJobs grid", slices.Repeat([]wire.Job{cell}, wire.MaxJobs+1),
			http.StatusRequestEntityTooLarge, "grid has 10001 jobs, limit 10000"},
		{"over-MaxCellRounds cell", []wire.Job{long},
			http.StatusBadRequest, "jobs[0]: rounds 10000001 outside [0, 10000000]"},
	} {
		doc, err := wire.MarshalSweep(wire.Sweep{Version: wire.V1, Jobs: tc.jobs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || strings.TrimSpace(string(msg)) != tc.msg {
			t.Errorf("%s: HTTP %d %q, want %d %q", tc.name, resp.StatusCode, msg, tc.code, tc.msg)
		}
	}

	// A failed validation does not poison the cache: a corrected grid
	// under a fresh hash still runs, and per-cell config errors are
	// reported in-stream rather than failing the sweep.
	cellErr := wire.Sweep{Version: wire.V1, Jobs: []wire.Job{
		{Rounds: 10, Config: wire.Config{Ants: 0, Demands: []int{5}}},
		{Rounds: 10, Config: wire.Config{Ants: 50, Demands: []int{5}, Shards: 1}},
	}}
	sub, err := c.SubmitSweep(ctx, cellErr, client.SubmitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Results[0].Err == "" || sub.Results[0].Report != nil {
		t.Fatalf("invalid cell did not error: %+v", sub.Results[0])
	}
	if sub.Results[1].Err != "" || sub.Results[1].Report == nil {
		t.Fatalf("valid cell failed: %+v", sub.Results[1])
	}
	status, err := c.GetSweep(ctx, sub.Header.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.Failed != 1 {
		t.Fatalf("failed = %d, want 1", status.Failed)
	}
	healthz(hs.URL)
}

// TestDrainReturnsAllWorkers is the pool-lifecycle regression test:
// after sweeps with multi-shard engines at several worker counts,
// Close must return and shut down every checked-out shard worker — no
// goroutine may survive the drain. Run under -race in CI.
func TestDrainReturnsAllWorkers(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := simserver.New(simserver.Options{Workers: 4, MaxConcurrent: 4})
	hs := httptest.NewServer(srv)
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	// Multi-shard grids force worker-set checkouts; two shard counts
	// populate two pool size classes.
	for _, shards := range []int{2, 3} {
		sweep, err := wire.FromJobs(testGrid(t, shards))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 4}, nil); err != nil {
			t.Fatal(err)
		}
	}

	hs.Close()
	srv.Close()
	srv.Close() // idempotent

	// Submissions after drain are refused.
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader("{}"))
	if err == nil {
		resp.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // let engine cleanups (if any were missed) run
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across drain: %d before, %d after\n%s",
				before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentIdenticalSubmissions: simultaneous identical grids
// coalesce onto one execution and all receive full result sets.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	_, c, done := newTestService(t, simserver.Options{})
	defer done()
	ctx := context.Background()

	sweep, err := wire.FromJobs(testGrid(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 4
	type outcome struct {
		sub *client.Submission
		err error
	}
	results := make(chan outcome, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			sub, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 2}, nil)
			results <- outcome{sub, err}
		}()
	}
	var first *client.Submission
	for i := 0; i < submitters; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if first == nil {
			first = out.sub
			continue
		}
		if out.sub.Header.ID != first.Header.ID || len(out.sub.Results) != len(first.Results) {
			t.Fatalf("submissions diverged: %+v vs %+v", out.sub.Header, first.Header)
		}
		for j := range first.Results {
			if !reflect.DeepEqual(out.sub.Results[j].Report, first.Results[j].Report) {
				t.Fatalf("cell %d diverged across concurrent submissions", j)
			}
		}
	}
}

// TestStreamHeadersFlushedAtAdmission: a fresh sweep sends its response
// headers and stream header before its first cell is computed, so a
// caller can tell "computing" (X-Cache: miss) from "replaying" at
// admission — the signal the grid coordinator's backups key on. Each
// one-job sweep sleeps 2 s (JobDelay) before its cell; the headers, the
// NDJSON header line, the CSV header row, and the client's OnStart hook
// must all arrive in under 1 s.
func TestStreamHeadersFlushedAtAdmission(t *testing.T) {
	srv := simserver.New(simserver.Options{JobDelay: 2 * time.Second})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	const admitted = time.Second
	oneJob := func(seed uint64) wire.Sweep {
		return wire.Sweep{Version: wire.V1, Jobs: []wire.Job{{
			Rounds: 20,
			Config: wire.Config{Ants: 50, Demands: []int{10, 15}, Gamma: 1.0 / 32, Seed: seed, Shards: 1},
		}}}
	}
	// post returns the response and its first body line, timed from the
	// request.
	post := func(t *testing.T, sweep wire.Sweep, format string) (*http.Response, string, time.Duration) {
		body, err := wire.MarshalSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.Post(hs.URL+"/v1/sweeps?format="+format, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil {
			t.Fatalf("read first line: %v", err)
		}
		return resp, line, time.Since(start)
	}

	t.Run("ndjson", func(t *testing.T) {
		t.Parallel()
		sweep := oneJob(901)
		resp, line, elapsed := post(t, sweep, "ndjson")
		if elapsed > admitted {
			t.Errorf("headers and stream header took %v, want under %v (before the 2 s cell)", elapsed, admitted)
		}
		id, err := wire.SemanticSweepHash(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("X-Cache = %q, want miss", got)
		}
		if got := resp.Header.Get("X-Sweep-Id"); got != id {
			t.Errorf("X-Sweep-Id = %q, want %s", got, id)
		}
		var header wire.StreamHeader
		if err := json.Unmarshal([]byte(line), &header); err != nil || header.ID != id || header.Jobs != 1 {
			t.Errorf("first line %q (%v), want the stream header of sweep %s", line, err, id)
		}
	})
	t.Run("csv", func(t *testing.T) {
		t.Parallel()
		_, line, elapsed := post(t, oneJob(902), "csv")
		if elapsed > admitted {
			t.Errorf("CSV header row took %v, want under %v", elapsed, admitted)
		}
		if want := strings.Join(sweeprun.CSVHeader(), ",") + "\n"; line != want {
			t.Errorf("first CSV line %q, want the header row %q", line, want)
		}
	})
	t.Run("client-onstart", func(t *testing.T) {
		t.Parallel()
		c := client.New(hs.URL, nil)
		start := time.Now()
		var (
			startedAfter time.Duration
			verdict      string
			cached       bool
		)
		sub, err := c.SubmitSweep(context.Background(), oneJob(903), client.SubmitOptions{
			OnStart: func(s *client.Submission) {
				startedAfter, verdict, cached = time.Since(start), s.Disposition, s.Cached
			},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if startedAfter == 0 || startedAfter > admitted {
			t.Errorf("OnStart fired after %v, want under %v", startedAfter, admitted)
		}
		if verdict != "miss" || cached {
			t.Errorf("OnStart saw disposition %q cached %v, want miss/false", verdict, cached)
		}
		if len(sub.Results) != 1 || sub.Disposition != "miss" {
			t.Errorf("submission %+v, want one result with disposition miss", sub)
		}
	})
}
