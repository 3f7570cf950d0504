package gridcoord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// Failure-mode coverage for the two transient backend pathologies the
// transport alone cannot classify: a 429 rate-limit rejection (the one
// retryable 4xx) and a stream that stays open but stops delivering.

// fastSweep is a grid of cheap deterministic jobs: small enough that
// healthy backends finish in milliseconds, so stall timeouts can stay
// short without racing real compute.
func fastSweep(seedBase uint64, jobs int) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < jobs; i++ {
		sweep.Jobs = append(sweep.Jobs, propJob(seedBase+uint64(i)))
	}
	return sweep
}

// victimWithJobs picks the backend owning the largest equal-range slice.
func victimWithJobs(t *testing.T, sweep wire.Sweep, n int) (int, [][]int) {
	t.Helper()
	assign := partitionJobs(t, sweep.Jobs, n)
	victim := 0
	for b, idxs := range assign {
		if len(idxs) > len(assign[victim]) {
			victim = b
		}
	}
	if len(assign[victim]) == 0 {
		t.Fatalf("no backend owns any job: %v", assign)
	}
	return victim, assign
}

// TestRateLimited429MidSweep: a backend that starts 429ing mid-sweep is
// a transient loss, not a fatal rejection — its range re-dispatches to
// the survivors, the typed RateLimitError (with the server's
// Retry-After) surfaces on the lost event, the terminal done event
// still fires for the failed stream, and the merged bytes stay
// identical to the single-host response.
func TestRateLimited429MidSweep(t *testing.T) {
	sweep := fastSweep(7100, 16)
	const retryAfter = 1500 * time.Millisecond

	victim, assign := victimWithJobs(t, sweep, 3)
	var armed atomic.Bool
	armed.Store(true)
	urls := bootBackends(t, 4, func(i int, h http.Handler) http.Handler {
		if i != victim {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && armed.CompareAndSwap(true, false) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				_ = json.NewEncoder(w).Encode(wire.ErrorBody{
					Error:        "tenant rate limited",
					Kind:         "rate_limited",
					RetryAfterMS: retryAfter.Milliseconds(),
				})
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	want := singleHost(t, urls[3], sweep, "ndjson")

	var (
		evMu       sync.Mutex
		lostEvents []Event
		doneEvents []Event
		redispatch int
	)
	coord, err := New(Options{
		Backends: urls[:3],
		// Static mode: the victim's whole range is one stream, so the
		// exact retried-count assertion below holds.
		StealChunk: -1,
		Observe: func(ev Event) {
			evMu.Lock()
			defer evMu.Unlock()
			switch {
			case ev.Kind == EventBackendLost:
				lostEvents = append(lostEvents, ev)
			case ev.Kind == EventRedispatch:
				redispatch++
			case ev.Kind == EventBackendDone && ev.Backend == victim:
				doneEvents = append(doneEvents, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &got)
	if err != nil {
		t.Fatalf("429 must re-dispatch, not fail the run: %v", err)
	}
	if stats.BackendsLost != 1 || stats.Retried != len(assign[victim]) {
		t.Fatalf("stats = %+v, want backend %d lost with its %d jobs retried",
			stats, victim, len(assign[victim]))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged stream after a 429 differs from single host (%d vs %d bytes)",
			got.Len(), len(want))
	}

	evMu.Lock()
	defer evMu.Unlock()
	if len(lostEvents) != 1 || lostEvents[0].Backend != victim {
		t.Fatalf("lost events %+v, want exactly one for backend %d", lostEvents, victim)
	}
	var rle *client.RateLimitError
	if !errors.As(lostEvents[0].Err, &rle) {
		t.Fatalf("lost event error %v, want a typed *client.RateLimitError", lostEvents[0].Err)
	}
	if rle.RetryAfter != retryAfter {
		t.Errorf("RateLimitError.RetryAfter = %v, want the server's %v", rle.RetryAfter, retryAfter)
	}
	if redispatch == 0 {
		t.Error("no EventRedispatch observed after the 429")
	}
	if len(doneEvents) != 1 {
		t.Fatalf("victim reported %d done events, want exactly 1 (the rejected stream)", len(doneEvents))
	}
	if ev := doneEvents[0]; ev.Err == nil || ev.Jobs != 0 {
		t.Errorf("victim done event %+v, want err != nil and 0 delivered", ev)
	}
}

// TestStalledBackendMidSweep: a backend that accepts the sub-sweep and
// then goes silent — stream open, no results — never surfaces a
// transport error on its own, so the coordinator's StallTimeout
// watchdog must cancel the stream, re-dispatch the undelivered range,
// fire the terminal done event for the dead stream, and keep the merged
// bytes identical to the single-host response.
func TestStalledBackendMidSweep(t *testing.T) {
	sweep := fastSweep(7300, 16)
	victim, assign := victimWithJobs(t, sweep, 3)

	var armed atomic.Bool
	armed.Store(true)
	urls := bootBackends(t, 4, func(i int, h http.Handler) http.Handler {
		if i != victim {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && armed.CompareAndSwap(true, false) {
				// A convincing stall: the stream header goes out (the
				// request was accepted), then silence until the client
				// hangs up.
				w.Header().Set("Content-Type", "application/x-ndjson")
				_ = json.NewEncoder(w).Encode(wire.StreamHeader{
					Version: wire.V1, ID: "stall", Jobs: 999,
				})
				if fl, ok := w.(http.Flusher); ok {
					fl.Flush()
				}
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	want := singleHost(t, urls[3], sweep, "ndjson")

	var (
		evMu       sync.Mutex
		lostEvents []Event
		doneEvents []Event
	)
	coord, err := New(Options{
		Backends:     urls[:3],
		StealChunk:   -1,
		StallTimeout: time.Second,
		Observe: func(ev Event) {
			evMu.Lock()
			defer evMu.Unlock()
			switch {
			case ev.Kind == EventBackendLost:
				lostEvents = append(lostEvents, ev)
			case ev.Kind == EventBackendDone && ev.Backend == victim:
				doneEvents = append(doneEvents, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	start := time.Now()
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &got)
	if err != nil {
		t.Fatalf("a stalled backend must re-dispatch, not fail the run: %v", err)
	}
	if stats.BackendsLost != 1 || stats.Retried != len(assign[victim]) {
		t.Fatalf("stats = %+v, want backend %d lost with its %d jobs retried",
			stats, victim, len(assign[victim]))
	}
	// The watchdog, not some longer transport timeout, must have cut the
	// stream: the whole run bounds at the stall timeout plus fast-grid
	// compute, far under the test's own deadline.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("run took %v; the stall watchdog did not fire", elapsed)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged stream after a stalled backend differs from single host (%d vs %d bytes)",
			got.Len(), len(want))
	}

	evMu.Lock()
	defer evMu.Unlock()
	if len(lostEvents) != 1 || lostEvents[0].Backend != victim {
		t.Fatalf("lost events %+v, want exactly one for backend %d", lostEvents, victim)
	}
	if msg := lostEvents[0].Err.Error(); !bytes.Contains([]byte(msg), []byte("stalled")) {
		t.Errorf("lost event error %q does not attribute the failure to a stall", msg)
	}
	if len(doneEvents) != 1 {
		t.Fatalf("victim reported %d done events, want exactly 1 (the stalled stream)", len(doneEvents))
	}
	if ev := doneEvents[0]; ev.Err == nil || ev.Jobs != 0 {
		t.Errorf("victim done event %+v, want err != nil and 0 delivered", ev)
	}
}
