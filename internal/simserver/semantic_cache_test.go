package simserver_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"taskalloc/internal/scenario"
	"taskalloc/internal/simserver"
	"taskalloc/internal/wire"
)

// aliasSweeps builds the flagship alias pair: one sweep over a
// generative step schedule and one over the frozen snapshot of that
// same schedule — behaviorally identical realized demand, syntactically
// distinct documents.
func aliasSweeps(t *testing.T, trajectory bool) (generative, frozen wire.Sweep) {
	t.Helper()
	step := &wire.Schedule{
		Kind: "step", Base: []int{40, 60},
		When: []uint64{40}, Vectors: [][]int{{70, 30}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	fz, err := scenario.Freeze(sched, 200)
	if err != nil {
		t.Fatal(err)
	}
	fzEnc, err := wire.FromSchedule(fz)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sc wire.Schedule) wire.Sweep {
		var jobs []wire.Job
		for seed := uint64(1); seed <= 2; seed++ {
			s := sc
			jobs = append(jobs, wire.Job{
				Meta:       []string{"seed", itoa(seed)},
				Rounds:     100,
				Trajectory: trajectory,
				Config: wire.Config{
					Ants: 240, Epsilon: 0.5, Gamma: 0.03, Seed: seed, Shards: 2,
					Schedule: &s,
				},
			})
		}
		return wire.Sweep{Version: wire.V1, Jobs: jobs}
	}
	g, f := mk(*step), mk(fzEnc)
	synG, err := wire.SweepHash(g)
	if err != nil {
		t.Fatal(err)
	}
	synF, err := wire.SweepHash(f)
	if err != nil {
		t.Fatal(err)
	}
	if synG == synF {
		t.Fatal("alias pair is syntactically identical; test is vacuous")
	}
	return g, f
}

func postRaw(t *testing.T, url string, sweep wire.Sweep) (*http.Response, []byte) {
	t.Helper()
	blob, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps?workers=2", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	return resp, body
}

// TestSemanticAliasEndToEnd is the issue's acceptance e2e: a frozen
// snapshot and its generative schedule produce the same semantic sweep
// ID, hit the same cache entry, and replay byte-identical bodies —
// trajectories included.
func TestSemanticAliasEndToEnd(t *testing.T) {
	srv := simserver.New(simserver.Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	generative, frozen := aliasSweeps(t, true)

	fresh, freshBody := postRaw(t, ts.URL, generative)
	if got := fresh.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}
	cached, cachedBody := postRaw(t, ts.URL, frozen)
	if got := cached.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("alias submission X-Cache = %q, want hit", got)
	}
	if got, ok := cached.Header["X-Sweep-Cache"]; ok {
		t.Fatalf("alias submission carries the retired X-Sweep-Cache header %q", got)
	}
	if a, b := fresh.Header.Get("X-Sweep-Id"), cached.Header.Get("X-Sweep-Id"); a != b || a == "" {
		t.Fatalf("alias pair got different sweep IDs: %q vs %q", a, b)
	}
	if !bytes.Equal(freshBody, cachedBody) {
		t.Fatalf("alias replay not byte-identical:\n fresh: %d bytes\ncached: %d bytes", len(freshBody), len(cachedBody))
	}

	misses := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="miss"}`)
	hits := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="hit"}`)
	if misses != 1 || hits != 1 {
		t.Fatalf("sweeps: %g misses, %g hits; want 1 miss + 1 hit", misses, hits)
	}
	if got := metric(t, ts.URL, "taskalloc_semantic_alias_hits_total"); got != 1 {
		t.Fatalf("semantic alias hits = %g, want 1", got)
	}
	if got := metric(t, ts.URL, "taskalloc_sweep_cache_entries"); got != 1 {
		t.Fatalf("cache entries = %g, want 1 (aliases share the entry)", got)
	}
}

// TestSemanticAliasEvictionAccounting is the budget-accounting
// satellite: two syntactically distinct spellings coalesce onto one
// semantic entry, so the byte budget is charged once — and when the
// entry is evicted, every spelling misses (no stale alias survives).
func TestSemanticAliasEvictionAccounting(t *testing.T) {
	t.Run("charged once", func(t *testing.T) {
		srv := simserver.New(simserver.Options{Workers: 2})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		generative, frozen := aliasSweeps(t, true)
		postRaw(t, ts.URL, generative)
		bytes1 := metric(t, ts.URL, "taskalloc_sweep_cache_bytes")
		if bytes1 <= 0 {
			t.Fatalf("entry charged %g bytes, want > 0", bytes1)
		}
		postRaw(t, ts.URL, frozen)
		if bytes2 := metric(t, ts.URL, "taskalloc_sweep_cache_bytes"); bytes2 != bytes1 {
			t.Fatalf("alias hit changed the charged bytes: %g -> %g", bytes1, bytes2)
		}
		if got := metric(t, ts.URL, "taskalloc_sweep_cache_entries"); got != 1 {
			t.Fatalf("cache entries = %g, want 1", got)
		}
	})

	t.Run("eviction invalidates every alias", func(t *testing.T) {
		// CacheBytes: 1 keeps the budget permanently exceeded, so the
		// next insertion evicts every completed entry — after which the
		// alias spelling must re-run rather than hit a stale mapping.
		srv := simserver.New(simserver.Options{Workers: 2, CacheBytes: 1})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		generative, frozen := aliasSweeps(t, true)
		first, firstBody := postRaw(t, ts.URL, generative)
		if got := first.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("first submission X-Cache = %q, want miss", got)
		}
		// A distinct sweep's insertion pushes the completed entry out.
		evictor := generative
		evictor.Jobs = evictor.Jobs[:1]
		postRaw(t, ts.URL, evictor)

		second, secondBody := postRaw(t, ts.URL, frozen)
		if got := second.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("post-eviction alias X-Cache = %q, want miss (entry was evicted)", got)
		}
		// Both ran fresh, and determinism still makes the bodies equal.
		if !bytes.Equal(firstBody, secondBody) {
			t.Fatal("fresh alias runs diverged")
		}
		misses := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="miss"}`)
		hits := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="hit"}`)
		if misses != 3 || hits != 0 {
			t.Fatalf("sweeps: %g misses, %g hits; want 3 misses and no hits", misses, hits)
		}
	})
}

// TestConcurrentAliasSubmissionsCoalesce: syntactically distinct but
// equivalent concurrent submissions coalesce onto one execution, and
// the joiners are counted as semantic-alias coalesces.
func TestConcurrentAliasSubmissionsCoalesce(t *testing.T) {
	srv := simserver.New(simserver.Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	generative, frozen := aliasSweeps(t, false)
	type outcome struct {
		body []byte
		err  error
	}
	results := make(chan outcome, 2)
	for _, sweep := range []wire.Sweep{generative, frozen} {
		blob, err := wire.MarshalSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(ts.URL+"/v1/sweeps?workers=2", "application/json", bytes.NewReader(blob))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
			}
			results <- outcome{body: body, err: err}
		}()
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("submissions failed: %v / %v", a.err, b.err)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatal("concurrent alias submissions got different bodies")
	}
	if misses := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="miss"}`); misses != 1 {
		t.Fatalf("misses = %g, want 1 (one execution)", misses)
	}
	hits := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="hit"}`)
	coalesced := metric(t, ts.URL, `taskalloc_sweep_requests_total{disposition="coalesced"}`)
	if hits+coalesced != 1 {
		t.Fatalf("%g hits + %g coalesced, want exactly one joiner", hits, coalesced)
	}
	if got := metric(t, ts.URL, "taskalloc_semantic_alias_hits_total"); got != 1 {
		t.Fatalf("semantic alias hits = %g, want 1", got)
	}
}
