package gridcoord

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"taskalloc/internal/scenario"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// benchSweep builds a 12-cell grid; seedBase varies per iteration so
// every submission misses the backends' result caches (the benchmark
// measures execution + coordination, not cache replay).
func benchSweep(seedBase uint64) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 12; i++ {
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:   []string{"n", "2000", "static", fmt.Sprint(seedBase + uint64(i))},
			Rounds: 600,
			Config: wire.Config{
				Ants:    2000,
				Demands: []int{700, 900},
				Gamma:   1.0 / 32,
				Seed:    seedBase + uint64(i),
				Shards:  1,
				BurnIn:  300,
			},
		})
	}
	return sweep
}

func benchBackends(b *testing.B, n int) []string {
	b.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := simserver.New(simserver.Options{})
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// BenchmarkGridSweep measures the coordinator's end-to-end cost at 1
// and 3 backends; compared with BenchmarkSingleHostSweep, the delta is
// the coordination overhead (hashing, partitioning, HTTP fan-out,
// ordered merge) recorded in BENCH_5.json.
func BenchmarkGridSweep(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			coord, err := New(Options{Backends: benchBackends(b, n)})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep := benchSweep(uint64(1 + i*1000))
				if _, err := coord.Run(context.Background(), sweep, FormatNDJSON, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleHostSweep is the 1-host baseline: the same grid
// POSTed directly to one backend, no coordinator in the path.
func BenchmarkSingleHostSweep(b *testing.B) {
	url := benchBackends(b, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := wire.MarshalSweep(benchSweep(uint64(1 + i*1000)))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST: %s", resp.Status)
		}
	}
}

func benchBisectRequest() wire.BisectRequest {
	return wire.BisectRequest{
		Version: wire.V1,
		Job: wire.Job{
			Rounds: 600,
			Config: wire.Config{
				Ants:    2000,
				Demands: []int{700, 900},
				Seed:    7,
				Shards:  1,
				BurnIn:  300,
			},
		},
		GammaLo:    0.004,
		GammaHi:    1.0 / 16,
		TargetBand: 20,
		MaxEvals:   64,
	}
}

// BenchmarkBisect measures an adaptive γ-bisection cold (every cell
// simulated) and warm (an identical re-bisection served from the
// backend's job-level cache) — the cache-warm speedup recorded in
// BENCH_5.json.
func BenchmarkBisect(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			coord, err := New(Options{Backends: benchBackends(b, 1)})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := coord.Bisect(context.Background(), benchBisectRequest()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		coord, err := New(Options{Backends: benchBackends(b, 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := coord.Bisect(context.Background(), benchBisectRequest()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := coord.Bisect(context.Background(), benchBisectRequest())
			if err != nil {
				b.Fatal(err)
			}
			if resp.CacheHits != resp.Evals {
				b.Fatalf("warm bisect missed the cache: %d of %d", resp.CacheHits, resp.Evals)
			}
		}
	})
}

// frozenStep encodes a frozen snapshot, over horizon rounds, of a step
// schedule that changes once: a few bytes on the wire, but normalizing
// it decodes and re-freezes every one of its rounds.
func frozenStep(b *testing.B, horizon uint64) *wire.Schedule {
	b.Helper()
	step := &wire.Schedule{
		Kind: "step", Base: []int{400, 600},
		When: []uint64{horizon / 2}, Vectors: [][]int{{600, 400}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		b.Fatal(err)
	}
	fz, err := scenario.Freeze(sched, horizon)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := wire.FromSchedule(fz)
	if err != nil {
		b.Fatal(err)
	}
	return &enc
}

// BenchmarkBisectFrozenTemplate measures a warm 8-eval search (4
// rounds, every cell cached) whose template is a frozen snapshot over
// 2^20 rounds, with -benchmem the point: on a server the search
// normalizes its template once, and through the coordinator the
// coordinator does once and its in-process backend once per round's
// sub-sweep.
func BenchmarkBisectFrozenTemplate(b *testing.B) {
	req := wire.BisectRequest{
		Version: wire.V1,
		Job: wire.Job{Rounds: 600, Config: wire.Config{
			Ants: 1000, Seed: 7, Shards: 1, Schedule: frozenStep(b, 1<<20)}},
		GammaLo:    0.004,
		GammaHi:    1.0 / 16,
		TargetBand: 1e-9,
		MaxEvals:   8,
	}
	for _, side := range []string{"server", "coordinator"} {
		b.Run(side, func(b *testing.B) {
			url := benchBackends(b, 1)[0]
			search := client.New(url, nil).Bisect
			if side == "coordinator" {
				coord, err := New(Options{Backends: []string{url}})
				if err != nil {
					b.Fatal(err)
				}
				search = coord.Bisect
			}
			if _, err := search(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := search(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Evals != 8 || resp.CacheHits != resp.Evals {
					b.Fatalf("warm search: %d of %d evals cached, want 8 of 8", resp.CacheHits, resp.Evals)
				}
			}
		})
	}
}

// BenchmarkPlacementFrozenGrid measures what the coordinator computes
// before its first backend call: the sweep ID (X-Sweep-Id and the
// stream header) and the placement over 3 backends. The grid is the
// cmd/sweep pattern: 24 cells, differing only in seed, share one frozen
// snapshot over 2^16 rounds of a step schedule that changes once. The
// snapshot is a few bytes on the wire, but normalizing it decodes and
// re-freezes every one of its rounds, which one wire.SemanticSweepKeys
// pass does once for the whole grid.
func BenchmarkPlacementFrozenGrid(b *testing.B) {
	const horizon = 1 << 16
	enc := frozenStep(b, horizon)
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 24; i++ {
		sweep.Jobs = append(sweep.Jobs, wire.Job{
			Meta:   []string{"frozen", fmt.Sprint(i)},
			Rounds: horizon,
			Config: wire.Config{Ants: 1000, Gamma: 1.0 / 32, Seed: uint64(i), Shards: 1, Schedule: enc},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, keys, err := wire.SemanticSweepKeys(sweep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Partition(keys, 3); err != nil {
			b.Fatal(err)
		}
	}
}
