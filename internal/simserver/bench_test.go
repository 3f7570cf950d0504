package simserver_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"taskalloc"
	"taskalloc/internal/scenario"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// BenchmarkServerSweep measures one full service round trip: POST a
// (γ × seed) grid as wire JSON, fan it out on the shared pool, and
// consume the NDJSON stream. Each iteration mutates the base seed so
// the result cache never short-circuits the work being measured; see
// BenchmarkServerSweepCached for the cache path.
func BenchmarkServerSweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv := simserver.New(simserver.Options{Workers: workers, MaxConcurrent: workers})
			hs := httptest.NewServer(srv)
			defer func() {
				hs.Close()
				srv.Close()
			}()
			c := client.New(hs.URL, hs.Client())
			ctx := context.Background()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep := benchSweep(b, uint64(i)*100+1)
				sub, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: workers}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if sub.Cached || len(sub.Results) != len(sweep.Jobs) {
					b.Fatalf("unexpected response: cached=%v results=%d", sub.Cached, len(sub.Results))
				}
			}
		})
	}
}

// BenchmarkServerSweepCached measures the cache replay path: the same
// grid re-submitted every iteration, served without simulating.
func BenchmarkServerSweepCached(b *testing.B) {
	srv := simserver.New(simserver.Options{})
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	sweep := benchSweep(b, 1)
	if _, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !sub.Cached {
			b.Fatal("cache miss on identical re-submission")
		}
	}
}

// benchSweep builds an 8-cell grid (2 γ × 4 seeds) of 2-shard engines,
// 400 rounds each — small enough for CI smoke, large enough that the
// serving overhead is amortized over real simulation work.
func benchSweep(b *testing.B, baseSeed uint64) wire.Sweep {
	b.Helper()
	var jobs []sweeprun.Job
	for _, gamma := range []float64{0.03, 0.0625} {
		for s := uint64(0); s < 4; s++ {
			jobs = append(jobs, sweeprun.Job{
				Meta: []string{"gamma", fmt.Sprint(gamma), "static", fmt.Sprint(baseSeed + s)},
				Config: taskalloc.Config{
					Ants: 2000, Demands: []int{300, 500}, Gamma: gamma,
					Noise: taskalloc.SigmoidNoise(0.02),
					Seed:  baseSeed + s, Shards: 2, BurnIn: 100,
				},
				Rounds: 400,
			})
		}
	}
	sweep, err := wire.FromJobs(jobs)
	if err != nil {
		b.Fatal(err)
	}
	return sweep
}

// aliasBenchPair builds the BENCH_6 sweep pair: a generative step
// schedule and its frozen snapshot — behaviorally identical,
// syntactically distinct — over 4 seeds at seedBase.
func aliasBenchPair(b *testing.B, seedBase uint64) (generative, frozen wire.Sweep) {
	b.Helper()
	step := &wire.Schedule{
		Kind: "step", Base: []int{300, 500},
		When: []uint64{200}, Vectors: [][]int{{500, 300}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		b.Fatal(err)
	}
	fz, err := scenario.Freeze(sched, 401)
	if err != nil {
		b.Fatal(err)
	}
	fzEnc, err := wire.FromSchedule(fz)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(sc wire.Schedule) wire.Sweep {
		var jobs []wire.Job
		for s := uint64(0); s < 4; s++ {
			cp := sc
			jobs = append(jobs, wire.Job{
				Meta:   []string{"alias", fmt.Sprint(seedBase + s)},
				Rounds: 400,
				Config: wire.Config{
					Ants: 2000, Epsilon: 0.5, Gamma: 0.03, Seed: seedBase + s,
					Shards: 2, BurnIn: 100, Schedule: &cp,
				},
			})
		}
		return wire.Sweep{Version: wire.V1, Jobs: jobs}
	}
	return mk(*step), mk(fzEnc)
}

// BenchmarkSemanticAlias is the BENCH_6 measurement: cold submits a
// fresh generative sweep every iteration (cache miss, full
// simulation); warm re-submits the frozen *spelling* of a sweep whose
// generative spelling is already cached — every iteration is a
// semantic-alias hit served without simulating, so warm/cold is the
// alias layer's payoff on a frozen-vs-generative pair.
func BenchmarkSemanticAlias(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		srv := simserver.New(simserver.Options{})
		hs := httptest.NewServer(srv)
		defer func() { hs.Close(); srv.Close() }()
		c := client.New(hs.URL, hs.Client())
		ctx := context.Background()

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			generative, _ := aliasBenchPair(b, uint64(i)*100+1)
			sub, err := c.SubmitSweep(ctx, generative, client.SubmitOptions{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if sub.Disposition != "miss" {
				b.Fatalf("cold submission disposition %q, want miss", sub.Disposition)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		srv := simserver.New(simserver.Options{})
		hs := httptest.NewServer(srv)
		defer func() { hs.Close(); srv.Close() }()
		c := client.New(hs.URL, hs.Client())
		ctx := context.Background()

		generative, frozen := aliasBenchPair(b, 1)
		if _, err := c.SubmitSweep(ctx, generative, client.SubmitOptions{}, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub, err := c.SubmitSweep(ctx, frozen, client.SubmitOptions{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if sub.Disposition != "hit" {
				b.Fatalf("alias submission disposition %q, want hit", sub.Disposition)
			}
		}
		b.StopTimer()
		if hits := metric(b, hs.URL, "taskalloc_semantic_alias_hits_total"); hits < float64(b.N) {
			b.Fatalf("semantic alias hits %.0f < %d iterations", hits, b.N)
		}
	})
}
