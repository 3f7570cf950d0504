package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"taskalloc/internal/gridcoord"
	"taskalloc/internal/obs"
	"taskalloc/internal/wire"
)

// buildBinary compiles the package at dir into tmp and returns the path.
func buildBinary(t *testing.T, tmp, name, dir string) string {
	t.Helper()
	bin := filepath.Join(tmp, name)
	build := exec.Command("go", "build", "-o", bin, dir)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build %s: %v", dir, err)
	}
	return bin
}

// serveProc is one booted simserve process.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
}

func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	return startListener(t, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
}

// startListener boots a service binary that announces "listening on
// <addr>" as its first stdout line (simserve, or simgrid -serve).
func startListener(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line from %s: %v", filepath.Base(bin), sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", sc.Text())
	}
	// Keep draining stdout so the process never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return &serveProc{cmd: cmd, addr: "http://" + addr}
}

// e2eSweep builds a grid heavy enough that killing a backend lands
// mid-stream: 24 cells, each a few hundred milliseconds of simulation.
func e2eSweep(seedBase uint64) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 24; i++ {
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:       []string{"n", "8000", "static", fmt.Sprint(seedBase + uint64(i))},
			Rounds:     2500,
			Trajectory: i%12 == 0,
			Config: wire.Config{
				Ants:    8000,
				Demands: []int{3000, 4000},
				Gamma:   1.0 / 32,
				Seed:    seedBase + uint64(i),
				Shards:  1,
				BurnIn:  1000,
			},
		})
	}
	return sweep
}

// rawPost POSTs the sweep to one backend and returns the raw body.
func rawPost(t *testing.T, addr string, sweep wire.Sweep, format string) []byte {
	t.Helper()
	body, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(addr+"/v1/sweeps?format="+format, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-host POST: %s: %s", resp.Status, out)
	}
	return out
}

// TestE2EGridParity boots three real simserve backends plus a
// single-host reference, shards a sweep through the simgrid binary,
// and byte-compares the merged NDJSON and CSV streams against the
// reference responses.
func TestE2EGridParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots service binaries")
	}
	tmp := t.TempDir()
	serveBin := buildBinary(t, tmp, "simserve", "../simserve")
	gridBin := buildBinary(t, tmp, "simgrid", ".")

	var backends []*serveProc
	for i := 0; i < 3; i++ {
		backends = append(backends, startServe(t, serveBin))
	}
	reference := startServe(t, serveBin)

	sweep := e2eSweep(1)
	wantNDJSON := rawPost(t, reference.addr, sweep, "ndjson")
	wantCSV := rawPost(t, reference.addr, sweep, "csv")

	jobsFile := filepath.Join(tmp, "grid.json")
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobsFile, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	backendList := strings.Join(
		[]string{backends[0].addr, backends[1].addr, backends[2].addr}, ",")

	for format, want := range map[string][]byte{"ndjson": wantNDJSON, "csv": wantCSV} {
		cmd := exec.Command(gridBin, "-backends", backendList, "-jobs", jobsFile, "-format", format)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("simgrid %s: %v", format, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("simgrid %s stream differs from the single-host response (%d vs %d bytes)",
				format, out.Len(), len(want))
		}
	}
}

// get GETs url and returns the status code, Content-Type and body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// post POSTs the sweep to url's /v1/sweeps in format and returns the
// Content-Type and body of a 200 response.
func post(t *testing.T, url string, sweep wire.Sweep, format string) (string, []byte) {
	t.Helper()
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps?format="+format, "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, body)
	}
	return resp.Header.Get("Content-Type"), body
}

// TestE2EGridServe boots three real simserve backends, a single-host
// reference and simgrid -serve, and holds the coordinator's HTTP
// surface to the reference's: POST /v1/sweeps in NDJSON and CSV gives
// the same body bytes and Content-Type, GET /v1/sweeps/{id} the same
// status body, and an unknown id is a 404.
func TestE2EGridServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots service binaries")
	}
	tmp := t.TempDir()
	serveBin := buildBinary(t, tmp, "simserve", "../simserve")
	gridBin := buildBinary(t, tmp, "simgrid", ".")

	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startServe(t, serveBin).addr)
	}
	reference := startServe(t, serveBin).addr
	grid := startListener(t, gridBin, "-serve", "127.0.0.1:0", "-backends", strings.Join(addrs, ",")).addr

	sweep := e2eSweep(401)
	for _, format := range []string{"ndjson", "csv"} {
		wantType, want := post(t, reference, sweep, format)
		gotType, got := post(t, grid, sweep, format)
		if gotType != wantType {
			t.Errorf("%s Content-Type %q, single host sends %q", format, gotType, wantType)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("simgrid -serve %s body differs from the single-host response (%d vs %d bytes)",
				format, len(got), len(want))
		}
	}

	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	code, _, want := get(t, reference+"/v1/sweeps/"+id)
	if code != http.StatusOK {
		t.Fatalf("single-host GET: %d: %s", code, want)
	}
	code, _, got := get(t, grid+"/v1/sweeps/"+id)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("simgrid -serve GET: %d\n got: %s\nwant: %s", code, got, want)
	}
	if code, _, body := get(t, grid+"/v1/sweeps/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("GET of an unknown sweep: %d %s, want 404", code, body)
	}
}

// TestE2EGridMetricsScrape boots two real backends and the simgrid
// binary with -metrics-addr, scrapes the coordinator's /v1/metrics
// mid-sweep (poll until the run's sweep counter appears), lints the
// exposition, and checks the -v summary carries the run's trace ID.
func TestE2EGridMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots service binaries")
	}
	tmp := t.TempDir()
	serveBin := buildBinary(t, tmp, "simserve", "../simserve")
	gridBin := buildBinary(t, tmp, "simgrid", ".")

	var backends []*serveProc
	for i := 0; i < 2; i++ {
		backends = append(backends, startServe(t, serveBin))
	}
	sweep := e2eSweep(201)
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	jobsFile := filepath.Join(tmp, "grid.json")
	if err := os.WriteFile(jobsFile, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(gridBin,
		"-backends", backends[0].addr+","+backends[1].addr,
		"-jobs", jobsFile, "-metrics-addr", "127.0.0.1:0", "-v")
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	// The metrics listener announces on stderr before the run starts.
	sc := bufio.NewScanner(stderr)
	var metricsAddr string
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "simgrid: metrics listening on "); ok {
			metricsAddr = a
			break
		}
	}
	if metricsAddr == "" {
		t.Fatalf("no metrics listen line from simgrid: %v", sc.Err())
	}
	var stderrMu sync.Mutex
	var stderrRest []string
	go func() {
		for sc.Scan() {
			stderrMu.Lock()
			stderrRest = append(stderrRest, sc.Text())
			stderrMu.Unlock()
		}
	}()

	// Poll until a scrape sees this run's sweep counter — i.e. the
	// coordinator is mid-sweep (the fresh grid takes seconds to run).
	var body []byte
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + metricsAddr + "/v1/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK &&
				strings.Contains(string(b), "taskalloc_grid_sweeps_total 1") {
				body = b
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if body == nil {
		t.Fatal("never scraped a live coordinator exposition mid-sweep")
	}
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Fatalf("coordinator metrics lint: %v", problems)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("simgrid: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("simgrid produced no merged output")
	}
	stderrMu.Lock()
	summary := strings.Join(stderrRest, "\n")
	stderrMu.Unlock()
	if !strings.Contains(summary, "; trace ") {
		t.Errorf("-v summary missing the run's trace ID:\n%s", summary)
	}
}

// TestE2EKillBackendMidSweep boots three real backends, SIGKILLs one
// the moment it delivers its first result, and requires the merged
// stream to remain byte-identical to the single-host reference — the
// undelivered hash range is retried on the survivors.
func TestE2EKillBackendMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots service binaries")
	}
	tmp := t.TempDir()
	serveBin := buildBinary(t, tmp, "simserve", "../simserve")

	var backends []*serveProc
	for i := 0; i < 3; i++ {
		backends = append(backends, startServe(t, serveBin))
	}
	reference := startServe(t, serveBin)

	sweep := e2eSweep(101)
	want := rawPost(t, reference.addr, sweep, "ndjson")

	assign, err := gridcoord.Partition(sweep.Jobs, 3)
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
		t.Fatalf("victim backend %d owns %d jobs; need >= 2 to strand work", victim, len(assign[victim]))
	}

	var killOnce sync.Once
	coord, err := gridcoord.New(gridcoord.Options{
		Backends: []string{backends[0].addr, backends[1].addr, backends[2].addr},
		// One simulation at a time per backend: the victim cannot have
		// streamed its whole range before the kill lands.
		Workers: 1,
		Observe: func(ev gridcoord.Event) {
			if ev.Kind == gridcoord.EventResult && ev.Backend == victim {
				killOnce.Do(func() {
					if err := backends[victim].cmd.Process.Kill(); err != nil {
						t.Errorf("kill victim: %v", err)
					}
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var got bytes.Buffer
	stats, err := coord.Run(ctx, sweep, gridcoord.FormatNDJSON, &got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendsLost == 0 || stats.Retried == 0 {
		t.Fatalf("kill did not strand work: %+v", stats)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged stream after backend kill differs from single host (%d vs %d bytes)",
			got.Len(), len(want))
	}

	// CSV with the victim gone for good: its whole hash range lands on
	// the survivors, and the merged CSV still matches the single host.
	wantCSV := rawPost(t, reference.addr, sweep, "csv")
	var gotCSV bytes.Buffer
	stats, err = coord.Run(ctx, sweep, gridcoord.FormatCSV, &gotCSV)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendsLost != 1 {
		t.Errorf("CSV run lost %d backends, want the killed one only", stats.BackendsLost)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV) {
		t.Errorf("merged CSV with a killed backend differs from single host (%d vs %d bytes)",
			gotCSV.Len(), len(wantCSV))
	}
}

// chaosSweep is a light grid for the chaos test: the per-job simulation
// is fast enough that the injected -test-job-delay dominates, so the
// slow backend's handicap is exactly the configured ratio.
func chaosSweep(seedBase uint64) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 24; i++ {
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:   []string{"n", "500", "chaos", fmt.Sprint(seedBase + uint64(i))},
			Rounds: 400,
			Config: wire.Config{
				Ants:    500,
				Demands: []int{200, 250},
				Gamma:   1.0 / 32,
				Seed:    seedBase + uint64(i),
				Shards:  1,
				BurnIn:  100,
			},
		})
	}
	return sweep
}

// TestE2EGridChaosSlowBackend is the heterogeneous-fleet chaos gate:
// three real simserve processes where one is artificially 10x slower
// per job (the -test-job-delay hook), a work-stealing coordinator run,
// and a byte-comparison of the merged NDJSON and CSV streams against
// an undelayed single-host reference. The fast backends must actually
// steal from the slow one (Stats.Steals > 0 and the
// taskalloc_grid_steals_total counter both prove it), and the theft
// schedule must not leak into the output bytes.
func TestE2EGridChaosSlowBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots service binaries")
	}
	tmp := t.TempDir()
	serveBin := buildBinary(t, tmp, "simserve", "../simserve")

	const (
		fastDelay = 20 * time.Millisecond
		slowDelay = 10 * fastDelay
		slow      = 1 // which backend gets the handicap
	)
	var backends []*serveProc
	for i := 0; i < 3; i++ {
		delay := fastDelay
		if i == slow {
			delay = slowDelay
		}
		backends = append(backends, startServe(t, serveBin,
			"-test-job-delay", delay.String()))
	}
	reference := startServe(t, serveBin)

	sweep := chaosSweep(301)
	wantNDJSON := rawPost(t, reference.addr, sweep, "ndjson")
	wantCSV := rawPost(t, reference.addr, sweep, "csv")

	reg := obs.NewRegistry()
	coord, err := gridcoord.New(gridcoord.Options{
		Backends: []string{backends[0].addr, backends[1].addr, backends[2].addr},
		// One simulation at a time per backend: throughput differences
		// come from the injected delay alone, so the slow backend cannot
		// hide its handicap behind parallelism.
		Workers:  1,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var got bytes.Buffer
	stats, err := coord.Run(ctx, sweep, gridcoord.FormatNDJSON, &got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steals == 0 {
		t.Fatalf("no work was stolen from the 10x-slowed backend: %+v", stats)
	}
	if stats.BackendsLost != 0 || stats.Retried != 0 {
		t.Fatalf("chaos run saw failures, want pure stealing: %+v", stats)
	}
	if !bytes.Equal(got.Bytes(), wantNDJSON) {
		t.Errorf("merged NDJSON with a slow backend differs from single host (%d vs %d bytes)",
			got.Len(), len(wantNDJSON))
	}

	var exp bytes.Buffer
	if err := reg.Render(&exp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp.String(), "taskalloc_grid_steals_total 0\n") ||
		!strings.Contains(exp.String(), "taskalloc_grid_steals_total ") {
		t.Errorf("exposition does not show a positive steal counter:\n%s", exp.String())
	}

	// Same fleet, CSV rendering: a different steal schedule (timing is
	// not reproducible) must still merge byte-identically.
	var gotCSV bytes.Buffer
	if _, err := coord.Run(ctx, sweep, gridcoord.FormatCSV, &gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV) {
		t.Errorf("merged CSV with a slow backend differs from single host (%d vs %d bytes)",
			gotCSV.Len(), len(wantCSV))
	}
}
