package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"taskalloc/internal/goldencases"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// TestE2ESmoke is the end-to-end smoke CI runs: build and boot the
// real simserve binary, POST the whole golden-corpus sweep through the
// typed client with trajectories on, byte-compare every streamed
// trajectory against testdata/golden, verify the cache replay and the
// live /v1/metrics counters, and shut the process down gracefully.
func TestE2ESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the service binary")
	}
	bin := filepath.Join(t.TempDir(), "simserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "4")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf bytes.Buffer
	cmd.Stderr = io.MultiWriter(os.Stderr, &errBuf)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line from simserve: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", line)
	}
	c := client.New("http://"+addr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// The golden corpus as one wire sweep, trajectories requested.
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
	sub, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.Cached {
		t.Fatal("first submission reported a cache hit")
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
			t.Errorf("%s: trajectory streamed over HTTP differs from testdata/golden", name)
		}
	}

	// Identical re-submission is served from cache with identical cells.
	again, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("re-submission missed the cache")
	}
	for i := range sub.Results {
		if again.Results[i].Trajectory != sub.Results[i].Trajectory {
			t.Fatalf("%s: cached trajectory differs", cases[i].Name)
		}
	}
	if _, err := c.GetSweep(ctx, sub.Header.ID); err != nil {
		t.Fatalf("get sweep: %v", err)
	}

	// Telemetry scrape against the live binary: the exposition is
	// lint-clean and the core families are populated by the sweeps above.
	mresp, err := http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("scrape metrics: status %d, err %v", mresp.StatusCode, err)
	}
	if problems := obs.Lint(mbody); len(problems) != 0 {
		t.Fatalf("metrics lint: %v", problems)
	}
	for _, want := range []string{
		`taskalloc_sweep_requests_total{disposition="miss"} 1`,
		`taskalloc_sweep_requests_total{disposition="hit"} 1`,
		`taskalloc_stage_seconds_count{stage="engine_run"}`,
		`taskalloc_http_requests_total{route="POST /v1/sweeps",code="200"} 2`,
		"taskalloc_persist_errors_total 0",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Graceful drain: SIGTERM → clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("simserve exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("simserve did not drain within 30s of SIGTERM")
	}
	if logs := errBuf.String(); !strings.Contains(logs, "simserve: drained, exiting") {
		t.Errorf("shutdown log missing the drain line:\n%s", logs)
	}
}

// startServe boots the built simserve binary with args and returns the
// running process plus its bound address (parsed from the startup
// line). The caller owns shutdown.
func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		t.Fatalf("no listen line from simserve: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		t.Fatalf("unexpected startup line %q", sc.Text())
	}
	return cmd, addr
}

// durabilitySweep is the crash-test grid: enough sequential work (with
// -workers 1 -max-concurrent 1) that a SIGKILL lands mid-stream.
func durabilitySweep(jobs int) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < jobs; i++ {
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:   []string{"seed", strconv.FormatUint(uint64(i+1), 10)},
			Rounds: 20000,
			Config: wire.Config{
				Ants: 450, Demands: []int{150, 300}, Seed: uint64(i + 1), Shards: 1,
			},
		})
	}
	return sweep
}

// TestE2EDurability is the crash-restart acceptance e2e CI's
// durability job runs: boot simserve with -data-dir, SIGKILL it in the
// middle of an NDJSON stream, restart on the same directory, reconnect
// with ?cursor=N, and byte-compare the stitched response against an
// uninterrupted run — then verify the CSV replay, the warm cache hit,
// and the resume on /v1/metrics.
func TestE2EDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the service binary")
	}
	bin := filepath.Join(t.TempDir(), "simserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	sweep := durabilitySweep(60)
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}

	// Golden: the uninterrupted response from a memory-only process.
	golden, goldenAddr := startServe(t, bin, "-workers", "4")
	defer func() {
		_ = golden.Process.Kill()
		_, _ = golden.Process.Wait()
	}()
	post := func(addr, format string) (*http.Response, []byte) {
		t.Helper()
		url := "http://" + addr + "/v1/sweeps"
		if format != "" {
			url += "?format=" + format
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, body)
		}
		return resp, body
	}
	goldenResp, goldenNDJSON := post(goldenAddr, "")
	id := goldenResp.Header.Get("X-Sweep-Id")
	_, goldenCSV := post(goldenAddr, "csv")
	_ = golden.Process.Kill()
	_, _ = golden.Process.Wait()

	// Crash run: durable, strictly sequential so the kill lands
	// mid-sweep. Read the header line plus 3 result lines (raw bytes,
	// newlines preserved), then SIGKILL — no drain, no goodbye.
	dataDir := t.TempDir()
	victim, victimAddr := startServe(t, bin,
		"-data-dir", dataDir, "-workers", "1", "-max-concurrent", "1")
	defer func() {
		_ = victim.Process.Kill()
		_, _ = victim.Process.Wait()
	}()
	resp, err := http.Post("http://"+victimAddr+"/v1/sweeps", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	const cursor = 3
	br := bufio.NewReader(resp.Body)
	var kept []byte
	for i := 0; i < 1+cursor; i++ { // stream header + 3 cells
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read line %d before kill: %v", i, err)
		}
		kept = append(kept, line...)
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: a real crash
		t.Fatal(err)
	}
	_, _ = victim.Process.Wait()
	resp.Body.Close()

	// Restart on the same directory and reconnect at the cursor.
	reborn, rebornAddr := startServe(t, bin,
		"-data-dir", dataDir, "-workers", "4")
	defer func() {
		_ = reborn.Process.Kill()
		_, _ = reborn.Process.Wait()
	}()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + rebornAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		return resp, body
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := client.New("http://"+rebornAddr, nil).Healthz(ctx); err != nil {
		t.Fatalf("healthz after restart: %v", err)
	}
	_, tail := get("/v1/sweeps/" + id + "?cursor=" + strconv.Itoa(cursor))
	nl := bytes.IndexByte(tail, '\n') // resumed header line: the client drops it
	if nl < 0 {
		t.Fatalf("resumed stream has no header line: %q", tail)
	}
	stitched := append(append([]byte(nil), kept...), tail[nl+1:]...)
	if !bytes.Equal(stitched, goldenNDJSON) {
		t.Fatalf("stitched stream differs from uninterrupted run (%d vs %d bytes)",
			len(stitched), len(goldenNDJSON))
	}

	// CSV replay from cursor 0 is the uninterrupted CSV, byte for byte.
	_, csvBody := get("/v1/sweeps/" + id + "?cursor=0&format=csv")
	if !bytes.Equal(csvBody, goldenCSV) {
		t.Fatal("CSV replay after crash-restart differs from uninterrupted run")
	}

	// The journal is the cache now: a re-submission is a warm hit with
	// the golden bytes.
	hitResp, hitBody := post(rebornAddr, "")
	if got := hitResp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("re-submission after restart X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, goldenNDJSON) {
		t.Fatal("re-submission after restart not byte-identical")
	}

	// The exposition accounts the resume.
	_, exposition := get("/v1/metrics")
	sample := func(series string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(exposition), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("/v1/metrics has no series %s", series)
		return 0
	}
	if got := sample("taskalloc_disk_resumes_total"); got < 1 {
		t.Fatalf("disk resumes = %g, want >= 1", got)
	}
	if got := sample("taskalloc_persist_errors_total"); got != 0 {
		t.Fatalf("persist errors = %g, want 0", got)
	}
}
