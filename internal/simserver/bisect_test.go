package simserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taskalloc/internal/goldencases"
	"taskalloc/internal/wire"
)

// bisectGoldenRequest builds a bisect request over the golden S5-family
// sinusoid scenario (the scenario corpus the golden tests pin).
func bisectGoldenRequest(t *testing.T, targetBand float64, maxEvals int) wire.BisectRequest {
	t.Helper()
	var sinusoid *goldencases.Case
	for _, c := range goldencases.All() {
		if strings.HasPrefix(c.Name, "sinusoid_ant") {
			sinusoid = &c
			break
		}
	}
	if sinusoid == nil {
		t.Fatal("no sinusoid_ant golden case")
	}
	cfg, err := sinusoid.Config()
	if err != nil {
		t.Fatal(err)
	}
	wcfg, err := wire.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wire.BisectRequest{
		Version:    wire.V1,
		Job:        wire.Job{Rounds: sinusoid.Rounds, Config: wcfg},
		GammaLo:    0.004,
		GammaHi:    1.0 / 16,
		TargetBand: targetBand,
		MaxEvals:   maxEvals,
	}
}

func postBisect(t *testing.T, ts *httptest.Server, req wire.BisectRequest) (*wire.BisectResponse, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/bisect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, resp.StatusCode, strings.TrimSpace(string(msg))
	}
	var out wire.BisectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode, ""
}

// TestBisectConvergesOnGoldenScenario: the adaptive grid refines the γ
// interval until every segment's regret band is at most the target,
// and a repeat run is served (almost) entirely from the job cache.
func TestBisectConvergesOnGoldenScenario(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 8, 64)
	first, code, msg := postBisect(t, ts, req)
	if first == nil {
		t.Fatalf("bisect: HTTP %d: %s", code, msg)
	}
	if !first.Converged {
		t.Fatalf("bisect did not converge: %+v", first)
	}
	if first.Evals <= 2 {
		t.Fatalf("bisect converged with no refinement (evals=%d) — target band too loose for the test", first.Evals)
	}
	if first.Evals > 64 {
		t.Fatalf("evals %d over the requested budget", first.Evals)
	}
	if len(first.Cells) != first.Evals {
		t.Fatalf("%d cells for %d evals", len(first.Cells), first.Evals)
	}
	for i, iv := range first.Intervals {
		if iv.Band > req.TargetBand {
			t.Errorf("interval %d [%g, %g] band %g over target %g", i, iv.Lo, iv.Hi, iv.Band, req.TargetBand)
		}
	}
	for i := 1; i < len(first.Cells); i++ {
		if first.Cells[i].Gamma <= first.Cells[i-1].Gamma {
			t.Fatalf("cells not in ascending γ order at %d", i)
		}
	}
	// Segments tile the requested interval exactly.
	if got := first.Intervals[0].Lo; got != req.GammaLo {
		t.Errorf("first interval starts at %g, want %g", got, req.GammaLo)
	}
	if got := first.Intervals[len(first.Intervals)-1].Hi; got != req.GammaHi {
		t.Errorf("last interval ends at %g, want %g", got, req.GammaHi)
	}
	for i := 1; i < len(first.Intervals); i++ {
		if first.Intervals[i].Lo != first.Intervals[i-1].Hi {
			t.Errorf("interval gap between %g and %g", first.Intervals[i-1].Hi, first.Intervals[i].Lo)
		}
	}

	// Repeat bisect: identical search path, every cell from the cache.
	again, code, msg := postBisect(t, ts, req)
	if again == nil {
		t.Fatalf("repeat bisect: HTTP %d: %s", code, msg)
	}
	if again.Evals != first.Evals {
		t.Fatalf("repeat evaluated %d cells, first run %d — search path not deterministic", again.Evals, first.Evals)
	}
	if frac := float64(again.CacheHits) / float64(again.Evals); frac < 0.9 {
		t.Fatalf("repeat bisect hit only %.0f%% of %d cells", frac*100, again.Evals)
	}
	if again.ID != first.ID {
		t.Errorf("repeat response id %s != %s", again.ID, first.ID)
	}

	// An overlapping narrower search reuses the shared cells too.
	narrower := req
	narrower.GammaHi = (req.GammaLo + req.GammaHi) / 2
	nresp, code, msg := postBisect(t, ts, narrower)
	if nresp == nil {
		t.Fatalf("narrower bisect: HTTP %d: %s", code, msg)
	}
	if nresp.CacheHits == 0 {
		t.Error("narrower overlapping bisect reused no cached cells")
	}
}

// TestBisectIDIsCanonicalHash: the response ID must be the behavioral
// hash of the request AS SENT — max_evals 0 included — so coordinator
// affinity and caller-side correlation hold across servers with
// different -max-bisect-evals, and equivalent template spellings share
// one ID.
func TestBisectIDIsCanonicalHash(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 1e9, 0) // unreachable-loose band: endpoints only
	want, err := wire.SemanticBisectHash(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, code, msg := postBisect(t, ts, req)
	if resp == nil {
		t.Fatalf("bisect: HTTP %d: %s", code, msg)
	}
	if resp.ID != want {
		t.Errorf("response id %s != canonical request hash %s", resp.ID, want)
	}
	if resp.Evals != 2 || !resp.Converged {
		t.Errorf("loose band should converge on the endpoints alone: %+v", resp)
	}
}

// TestBisectConcurrentCoalesce: an identical request that arrives while
// a search is evaluating coalesces onto it and returns the same bytes
// (a request arriving after the search would replay from the job cache,
// and its body would differ in cached/cache_hits). JobDelay holds the
// first search open, and the second POST is sent only once the first
// has counted its evaluations, so the two always overlap.
func TestBisectConcurrentCoalesce(t *testing.T) {
	srv := New(Options{Workers: 2, JobDelay: 100 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 8, 64)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		body  []byte
		cache string
		err   error
	}
	results := make(chan out, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/bisect", "application/json", bytes.NewReader(body))
		if err != nil {
			results <- out{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
		}
		results <- out{body: b, cache: resp.Header.Get("X-Cache"), err: err}
	}
	go post()
	deadline := time.Now().Add(30 * time.Second)
	for srv.metrics.bisectJobMisses.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first bisect never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	go post()
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent bisect failed: %v / %v", a.err, b.err)
	}
	if got := []string{a.cache, b.cache}; !(got[0] == "miss" && got[1] == "coalesced" ||
		got[0] == "coalesced" && got[1] == "miss") {
		t.Errorf("X-Cache = %q; want one miss and one coalesced", got)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Errorf("concurrent identical bisects returned different responses:\n%s\n%s", a.body, b.body)
	}
}

// TestBisectBudgetExhaustion: a tiny budget must terminate with
// converged=false and exactly the budgeted number of evaluations.
func TestBisectBudgetExhaustion(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 0.001, 3) // unreachable band, 3 evals
	resp, code, msg := postBisect(t, ts, req)
	if resp == nil {
		t.Fatalf("bisect: HTTP %d: %s", code, msg)
	}
	if resp.Converged {
		t.Fatal("converged with an unreachable target band")
	}
	if resp.Evals != 3 {
		t.Fatalf("evals = %d, want the budget 3", resp.Evals)
	}
}

// TestBisectNaNRegret: a template whose regret is legitimately
// undefined (burn-in at the horizon leaves no rounds to average) must
// still produce a decodable response — NaN bands travel as null, never
// as an encoding failure that turns into an empty 200.
func TestBisectNaNRegret(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 8, 8)
	req.Job.Config.BurnIn = uint64(req.Job.Rounds) // AvgRegret = NaN
	resp, code, msg := postBisect(t, ts, req)
	if resp == nil {
		t.Fatalf("bisect with NaN regret: HTTP %d: %s", code, msg)
	}
	if resp.Converged {
		t.Error("converged with undefined regret bands")
	}
	if len(resp.Intervals) != 1 || !math.IsNaN(resp.Intervals[0].Band) {
		t.Errorf("want one interval with NaN band, got %+v", resp.Intervals)
	}
	if resp.Evals != 2 {
		t.Errorf("NaN bands must stop refinement at the endpoints, got %d evals", resp.Evals)
	}
}

// TestBisectAdmission: malformed and over-bound requests are rejected
// before any simulation runs.
func TestBisectAdmission(t *testing.T) {
	srv := New(Options{Workers: 1, MaxCellRounds: 200, MaxBisectEvals: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	base := bisectGoldenRequest(t, 8, 0)

	cases := []struct {
		name string
		mut  func(*wire.BisectRequest)
		want string
	}{
		{"inverted range", func(r *wire.BisectRequest) { r.GammaLo, r.GammaHi = r.GammaHi, r.GammaLo }, "gamma_lo"},
		{"gamma over max", func(r *wire.BisectRequest) { r.GammaHi = 0.5 }, "gamma_lo"},
		{"zero band", func(r *wire.BisectRequest) { r.TargetBand = 0 }, "target_band"},
		{"max_evals one", func(r *wire.BisectRequest) { r.MaxEvals = 1 }, "max_evals"},
		{"rounds over limit", func(r *wire.BisectRequest) { r.Job.Rounds = 201 }, "rounds"},
		{"evals over limit", func(r *wire.BisectRequest) { r.MaxEvals = 17 }, "max_evals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			tc.mut(&req)
			resp, code, msg := postBisect(t, ts, req)
			if resp != nil || code != http.StatusBadRequest {
				t.Fatalf("want 400, got %d (%+v)", code, resp)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not mention %q", msg, tc.want)
			}
		})
	}
}

// TestBisectUndecodableTemplate: a template that passes validation but
// cannot be decoded is a 400 carrying the decoder's own error — the
// message names the template's field, not a jobs array the request
// does not have.
func TestBisectUndecodableTemplate(t *testing.T) {
	srv := New(Options{Workers: 1, MaxCellRounds: 200, MaxBisectEvals: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := bisectGoldenRequest(t, 8, 0)
	req.Job.Config.Algorithm = "x"
	resp, code, msg := postBisect(t, ts, req)
	if resp != nil || code != http.StatusBadRequest {
		t.Fatalf("want 400, got %d (%+v)", code, resp)
	}
	if want := `wire: unknown algorithm "x"`; msg != want {
		t.Fatalf("400 body %q, want %q", msg, want)
	}
}

// TestBisectFrozenBudget: a bisect template gets a one-cell sweep's
// admission, the frozen-horizon budget included. The template composes
// two distinct frozen snapshots whose horizons sum past
// wire.MaxFrozenHorizon: a few hundred bytes that would materialize
// both snapshots at every keying and decode. The bisect must be
// rejected with the status and message of the same template POSTed as
// a one-job sweep.
func TestBisectFrozenBudget(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	frozen := func(d int) wire.Schedule {
		return wire.Schedule{Kind: "frozen", When: []uint64{0}, Vectors: [][]int{{d}},
			Horizon: wire.MaxFrozenHorizon/2 + 1}
	}
	job := wire.Job{Rounds: 50, Config: wire.Config{Ants: 100, Shards: 1, Schedule: &wire.Schedule{
		Kind: "compose", When: []uint64{0, 20}, Parts: []wire.Schedule{frozen(10), frozen(20)}}}}
	blob, err := wire.MarshalSweep(wire.Sweep{Jobs: []wire.Job{job}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	sweepMsg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("one-job sweep: HTTP %d %q, want 413", resp.StatusCode, sweepMsg)
	}

	req := wire.BisectRequest{Version: wire.V1, Job: job,
		GammaLo: 0.01, GammaHi: 1.0 / 16, TargetBand: 1e9, MaxEvals: 2}
	got, code, msg := postBisect(t, ts, req)
	if got != nil || code != resp.StatusCode || msg != strings.TrimSpace(string(sweepMsg)) {
		t.Fatalf("bisect: HTTP %d %q (%+v); the one-job sweep got HTTP %d %q",
			code, msg, got, resp.StatusCode, sweepMsg)
	}
}
