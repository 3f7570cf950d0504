package gridcoord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
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

// TestBodyCapMatchesBackend: the coordinator's HTTP surface caps a
// request document where a default backend does, and answers it as the
// backend does — a sweep one byte past wire.MaxBodyBytes is a 413, and
// a 9 MiB bisect request is decoded, so it gets the backend's own
// validation error. Each probe pads its document with whitespace after
// the opening brace and streams it.
func TestBodyCapMatchesBackend(t *testing.T) {
	backend := simserver.New(simserver.Options{})
	t.Cleanup(backend.Close)
	bs := httptest.NewServer(backend)
	t.Cleanup(bs.Close)
	coord, err := New(Options{Backends: []string{bs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	for _, p := range []struct {
		path, doc string
		size      int64 // whole body, in bytes
		want      int   // the backend's status
	}{
		{"/v1/sweeps", `{"version":"taskalloc/v1","jobs":[]}`, wire.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/bisect", `{"version":"taskalloc/v1","gamma_lo":0,"gamma_hi":0.05,"target_band":1}`, 9 << 20, http.StatusBadRequest},
	} {
		post := func(base string) (int, string) {
			t.Helper()
			body := io.MultiReader(strings.NewReader(p.doc[:1]),
				io.LimitReader(spaces{}, p.size-int64(len(p.doc))),
				strings.NewReader(p.doc[1:]))
			resp, err := http.Post(base+p.path, "application/json", body)
			if err != nil {
				t.Fatalf("POST %s (%d bytes): %v", p.path, p.size, err)
			}
			defer resp.Body.Close()
			msg, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(msg)
		}
		code, msg := post(bs.URL)
		if code != p.want {
			t.Fatalf("backend POST %s (%d bytes): HTTP %d %q, want %d", p.path, p.size, code, msg, p.want)
		}
		if gotCode, gotMsg := post(cs.URL); gotCode != code || gotMsg != msg {
			t.Errorf("coordinator POST %s (%d bytes): HTTP %d %q; the backend answered HTTP %d %q",
				p.path, p.size, gotCode, gotMsg, code, msg)
		}
	}
}

// heldBackend is a fake backend whose sub-sweeps stall after their
// first result: it answers X-Cache: miss, sends the stream header and
// result 0, flushes, and sends the rest only once release is called
// (or the request is cancelled).
func heldBackend(t *testing.T) (url string, release func()) {
	t.Helper()
	hold := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sub, err := wire.DecodeSweep(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := wire.SemanticSweepHash(sub)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType("ndjson"))
		w.Header().Set("X-Cache", "miss")
		enc := json.NewEncoder(w)
		_ = enc.Encode(wire.StreamHeader{Version: wire.V1, ID: id, Jobs: len(sub.Jobs)})
		_ = enc.Encode(fakeCell(0, sub.Jobs[0]))
		w.(http.Flusher).Flush()
		select {
		case <-hold:
		case <-r.Context().Done():
			return
		}
		for k := 1; k < len(sub.Jobs); k++ {
			_ = enc.Encode(fakeCell(k, sub.Jobs[k]))
		}
	}))
	t.Cleanup(backend.Close)
	return backend.URL, release
}

// headerTap is an http.RoundTripper that records the last response's
// headers before the caller reads its body.
type headerTap struct{ got *http.Header }

func (tap headerTap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		*tap.got = resp.Header
	}
	return resp, err
}

// await receives what's next on ch, or fails the test after 10 s
// rather than hang: a coordinator that holds its body back sends
// nothing until the backend is released.
func await[T any](t *testing.T, ch <-chan T, what string) (T, bool) {
	t.Helper()
	select {
	case v := <-ch:
		return v, true
	case <-time.After(10 * time.Second):
		t.Errorf("%s did not arrive within 10 s while the backend held the sweep", what)
		var zero T
		return zero, false
	}
}

// TestSweepStreamsAsItMerges: the coordinator's POST /v1/sweeps sends
// its headers and stream header at admission and each result once its
// prefix is merged, not when the response buffer fills or the run
// ends. Its one backend (heldBackend) stalls every sub-sweep after
// result 0, so X-Sweep-Id, the stream header (or CSV header row) and
// result 0 must reach the client while the rest of the grid is held —
// through client.SubmitSweep and its OnStart hook for NDJSON, and over
// plain HTTP for CSV. Once released, the whole body must equal the
// single-host rendering.
func TestSweepStreamsAsItMerges(t *testing.T) {
	sweep := fastSweep(9300, 4)
	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	coordinator := func(t *testing.T) (string, func()) {
		backend, release := heldBackend(t)
		coord, err := New(Options{Backends: []string{backend}})
		if err != nil {
			t.Fatal(err)
		}
		cs := httptest.NewServer(coord.Handler())
		t.Cleanup(cs.Close)
		// Registered last, so it runs first: Close waits for every
		// request, and a held run ends only once its backend lets go.
		t.Cleanup(release)
		return cs.URL, release
	}

	t.Run("ndjson", func(t *testing.T) {
		url, release := coordinator(t)
		want := strings.SplitAfter(string(expectedNDJSON(t, sweep)), "\n")
		var header http.Header
		c := client.New(url, &http.Client{Transport: headerTap{&header}})
		started := make(chan string, 1)
		first := make(chan string, 1)
		done := make(chan error, 1)
		var got bytes.Buffer // the result lines, re-encoded
		go func() {
			sub, err := c.SubmitSweep(context.Background(), sweep, client.SubmitOptions{
				OnStart: func(*client.Submission) { started <- header.Get("X-Sweep-Id") },
			}, func(res wire.Result) {
				line, _ := json.Marshal(res)
				got.Write(append(line, '\n'))
				if res.Index == 0 {
					first <- string(line) + "\n"
				}
			})
			if err == nil && sub.Header.ID != id {
				err = fmt.Errorf("stream header names sweep %s, want %s", sub.Header.ID, id)
			}
			done <- err
		}()
		if v, ok := await(t, started, "OnStart (X-Sweep-Id)"); ok {
			if v != id {
				t.Errorf("X-Sweep-Id = %q, want %s", v, id)
			}
			if v, ok := await(t, first, "result 0"); ok && v != want[1] {
				t.Errorf("result 0 = %q, want %q", v, want[1])
			}
		}
		release()
		if err, ok := await(t, done, "the end of the stream"); !ok || err != nil {
			t.Fatal(err)
		}
		if body := strings.Join(want[1:], ""); got.String() != body {
			t.Errorf("result lines differ from the single-host rendering:\n%s\nwant\n%s", got.String(), body)
		}
	})

	t.Run("csv", func(t *testing.T) {
		url, release := coordinator(t)
		want := strings.SplitAfter(string(expectedCSV(t, sweep)), "\n")
		body, err := wire.MarshalSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan string, 1)
		lines := make(chan string, len(want)) // a slot per line, so the reader never blocks
		done := make(chan error, 1)
		go func() {
			resp, err := http.Post(url+"/v1/sweeps?format=csv", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			started <- resp.Header.Get("X-Sweep-Id")
			r := bufio.NewReader(resp.Body)
			for {
				line, err := r.ReadString('\n')
				if line != "" {
					lines <- line
				}
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- err
					return
				}
			}
		}()
		v, ok := await(t, started, "X-Sweep-Id")
		if ok && v != id {
			t.Errorf("X-Sweep-Id = %q, want %s", v, id)
		}
		var got []string
		for k, what := range []string{"the CSV header row", "result 0's row"} {
			if !ok {
				break
			}
			if v, ok = await(t, lines, what); ok {
				if v != want[k] {
					t.Errorf("CSV line %d = %q, want %q", k, v, want[k])
				}
				got = append(got, v)
			}
		}
		release()
		if err, ok := await(t, done, "the end of the body"); !ok || err != nil {
			t.Fatal(err)
		}
		for len(lines) > 0 {
			got = append(got, <-lines)
		}
		if g, w := strings.Join(got, ""), strings.Join(want, ""); g != w {
			t.Errorf("CSV body differs from the single-host rendering:\n%s\nwant\n%s", g, w)
		}
	})
}

// postDoc POSTs a JSON document and returns the status and body.
func postDoc(t *testing.T, url string, doc []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestCoordinatorAdmission: the coordinator admits a document as a
// backend does, before it keys anything or calls a backend. For each
// admission bound — the job count, a cell's rounds and ants, the
// frozen-horizon budget (two distinct frozen snapshots composed, whose
// horizons sum past wire.MaxFrozenHorizon) and the evaluation budget —
// a sweep or a bisect past it gets the backend's own status and message
// from the coordinator's HTTP surface; Run returns the error having
// written nothing, and Bisect returns it; and the coordinator's backend
// is never called.
func TestCoordinatorAdmission(t *testing.T) {
	backend := simserver.New(simserver.Options{})
	t.Cleanup(backend.Close)
	bs := httptest.NewServer(backend)
	t.Cleanup(bs.Close)
	var calls atomic.Int64
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)
	coord, err := New(Options{Backends: []string{counted.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	for _, tc := range admissionRows() {
		t.Run(tc.name, func(t *testing.T) {
			path, doc := tc.doc(t)
			code, msg := postDoc(t, bs.URL+path, doc)
			if code != tc.want {
				t.Fatalf("backend POST %s: HTTP %d %q, want %d", path, code, msg, tc.want)
			}
			if gotCode, gotMsg := postDoc(t, cs.URL+path, doc); gotCode != code || !bytes.Equal(gotMsg, msg) {
				t.Errorf("coordinator POST %s: HTTP %d %.200q; the backend answered HTTP %d %q",
					path, gotCode, gotMsg, code, msg)
			}
			if tc.bisect != nil {
				if _, err := coord.Bisect(context.Background(), *tc.bisect); !errors.Is(err, wire.ErrAdmission) {
					t.Errorf("Bisect: error %v, want wire.ErrAdmission", err)
				}
				return
			}
			var out bytes.Buffer
			sweep := wire.Sweep{Version: wire.V1, Jobs: tc.jobs}
			if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, &out); !errors.Is(err, wire.ErrAdmission) || out.Len() > 0 {
				t.Errorf("Run: error %v after %d bytes, want wire.ErrAdmission before any", err, out.Len())
			}
		})
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("the coordinator sent its backend %d requests; admission comes before any", n)
	}
}

// admissionRow is a document past one admission bound: a sweep's grid
// (bisect nil) or a bisect request, and the status a backend answers.
type admissionRow struct {
	name   string
	jobs   []wire.Job
	bisect *wire.BisectRequest
	want   int
}

// admissionRows are one document per admission bound, sweeps' and
// bisects'. The frozen budget is broken by two distinct frozen
// snapshots composed, whose horizons sum past wire.MaxFrozenHorizon.
func admissionRows() []admissionRow {
	cell := wire.Job{Rounds: 10, Config: wire.Config{Ants: 10, Demands: []int{2}, Shards: 1}}
	over := func(mut func(*wire.Job)) wire.Job {
		j := cell
		mut(&j)
		return j
	}
	frozen := func(d int) wire.Schedule {
		return wire.Schedule{Kind: "frozen", When: []uint64{0}, Vectors: [][]int{{d}},
			Horizon: wire.MaxFrozenHorizon/2 + 1}
	}
	rounds := over(func(j *wire.Job) { j.Rounds = wire.MaxCellRounds + 1 })
	ants := over(func(j *wire.Job) { j.Config.Ants = wire.MaxCellAnts + 1 })
	frozenSum := over(func(j *wire.Job) {
		j.Config.Demands = nil
		j.Config.Schedule = &wire.Schedule{Kind: "compose", When: []uint64{0, 5},
			Parts: []wire.Schedule{frozen(10), frozen(20)}}
	})
	// A band no segment meets: a coordinator that admitted the
	// evaluation budget would spend all of it (propJob's regret varies
	// with γ).
	bisectOf := func(j wire.Job, evals int) *wire.BisectRequest {
		return &wire.BisectRequest{Version: wire.V1, Job: j,
			GammaLo: 0.01, GammaHi: 1.0 / 16, TargetBand: 1e-9, MaxEvals: evals}
	}
	return []admissionRow{
		{name: "sweep jobs", jobs: slices.Repeat([]wire.Job{cell}, wire.MaxJobs+1), want: http.StatusRequestEntityTooLarge},
		{name: "sweep rounds", jobs: []wire.Job{cell, cell, rounds, cell}, want: http.StatusBadRequest},
		{name: "sweep ants", jobs: []wire.Job{cell, cell, ants, cell}, want: http.StatusBadRequest},
		{name: "sweep frozen budget", jobs: []wire.Job{frozenSum}, want: http.StatusRequestEntityTooLarge},
		{name: "bisect rounds", bisect: bisectOf(rounds, 2), want: http.StatusBadRequest},
		{name: "bisect ants", bisect: bisectOf(ants, 2), want: http.StatusBadRequest},
		{name: "bisect frozen budget", bisect: bisectOf(frozenSum, 2), want: http.StatusRequestEntityTooLarge},
		{name: "bisect evaluation budget", bisect: bisectOf(propJob(9500), 200), want: http.StatusBadRequest},
	}
}

// doc is the row's route and body.
func (r admissionRow) doc(t testing.TB) (path string, doc []byte) {
	t.Helper()
	path = "/v1/sweeps"
	doc, err := wire.MarshalSweep(wire.Sweep{Version: wire.V1, Jobs: r.jobs})
	if r.bisect != nil {
		path = "/v1/bisect"
		doc, err = json.Marshal(r.bisect)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path, doc
}

// TestSweepAbortsAfterHeaders: a coordinator sweep that fails after its
// headers went out aborts the response rather than ending it cleanly,
// so a plain HTTP client sees the transfer fail. The coordinator admits
// and keys the grid, and its backends reject every sub-sweep.
func TestSweepAbortsAfterHeaders(t *testing.T) {
	urls := bootBackends(t, 3, func(int, http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "rejected", http.StatusBadRequest)
		})
	})
	coord, err := New(Options{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)
	doc, err := wire.MarshalSweep(fastSweep(9400, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cs.URL+"/v1/sweeps", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200: the headers go out before any backend is called", resp.StatusCode)
	}
	if body, err := io.ReadAll(resp.Body); err == nil {
		t.Fatalf("read a cleanly ended %d-byte body %.300q; want the transfer to fail", len(body), body)
	}
}

// TestLargeTemplateParity: the coordinator accepts what a single host
// accepts. The template's schedule is a 2^20-point trace, 11.5 MB as
// compact JSON and past wire.MaxBodyBytes once indented, so an indented
// sub-sweep of it is one a backend rejects. A bisect over it (its first
// round: both endpoint cells in one sub-sweep) and the template as a
// one-job sweep must get the same response from one backend as through
// a coordinator in front of another. TestBisectRoundSplitsBySize covers
// a round too large for one sub-sweep.
func TestLargeTemplateParity(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 100 MB of JSON; skipped under -short")
	}
	const points = 1 << 20
	when := make([]uint64, points)
	vecs := make([][]int, points)
	for i := range when {
		when[i], vecs[i] = uint64(i), []int{1 + i%2}
	}
	job := wire.Job{Rounds: 200, Config: wire.Config{Ants: 200, Shards: 1,
		Schedule: &wire.Schedule{Kind: "trace", When: when, Vectors: vecs}}}
	bisectDoc, err := json.Marshal(wire.BisectRequest{Version: wire.V1, Job: job,
		GammaLo: 0.004, GammaHi: 1.0 / 16, TargetBand: 1e-9, MaxEvals: 2})
	if err != nil {
		t.Fatal(err)
	}
	sweepDoc, err := json.Marshal(wire.Sweep{Version: wire.V1, Jobs: []wire.Job{job}})
	if err != nil {
		t.Fatal(err)
	}

	boot := func() string {
		srv := simserver.New(simserver.Options{Workers: 1})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	single := boot()
	coord, err := New(Options{Backends: []string{boot()}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	for _, p := range []struct {
		path string
		doc  []byte
	}{{"/v1/bisect", bisectDoc}, {"/v1/sweeps", sweepDoc}} {
		code, want := postDoc(t, single+p.path, p.doc)
		if code != http.StatusOK {
			t.Fatalf("backend POST %s: HTTP %d %q", p.path, code, want)
		}
		gotCode, got := postDoc(t, cs.URL+p.path, p.doc)
		if gotCode != code || !bytes.Equal(got, want) {
			t.Errorf("coordinator POST %s: HTTP %d, %d bytes %.300q; the backend answered HTTP %d, %d bytes %.300q",
				p.path, gotCode, len(got), got, code, len(want), want)
		}
	}
}
