package gridcoord

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"taskalloc/internal/simserver"
	"taskalloc/internal/wire"
)

// The heterogeneous-fleet benchmark pair: the same 3-backend grid with
// one backend 10x slower per job (the simserver JobDelay test hook),
// run over equal hash ranges with stealing off (static) and on
// (adaptive: auto chunking + work stealing). The adaptive ns/op beating
// the static one is the scheduler's headline claim, recorded in
// BENCH_7.json.

// benchGrid boots 3 in-process backends with the given per-job delays
// and returns a Coordinator over them.
func benchGrid(b *testing.B, delays []time.Duration, opts Options) *Coordinator {
	b.Helper()
	urls := make([]string, len(delays))
	for i, d := range delays {
		srv := simserver.New(simserver.Options{Workers: 1, JobDelay: d})
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	opts.Backends = urls
	opts.Workers = 1
	coord, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return coord
}

// chaosBenchSweep builds a fresh 24-job grid per iteration (distinct
// seeds, so no backend cache hit ever shortcuts the delay hook).
func chaosBenchSweep(iter int) wire.Sweep {
	sweep := wire.Sweep{Version: wire.V1}
	base := uint64(iter)*1000 + 500_000
	for i := 0; i < 24; i++ {
		j := propJob(base + uint64(i))
		j.Meta = []string{"bench", fmt.Sprint(base + uint64(i))}
		sweep.Jobs = append(sweep.Jobs, j)
	}
	return sweep
}

var benchDelays = []time.Duration{
	2 * time.Millisecond, 20 * time.Millisecond, 2 * time.Millisecond,
}

// BenchmarkGridStaticSlowBackend: equal hash ranges, no stealing — the
// 10x-slow backend's range gates the whole run.
func BenchmarkGridStaticSlowBackend(b *testing.B) {
	coord := benchGrid(b, benchDelays, Options{StealChunk: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(context.Background(), chaosBenchSweep(i), FormatNDJSON, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridAdaptiveSlowBackend: the same equal ranges, split into
// auto-sized chunks with work stealing — fast backends drain the slow
// one's queue, so the run bounds near the fast backends' rate.
func BenchmarkGridAdaptiveSlowBackend(b *testing.B) {
	coord := benchGrid(b, benchDelays, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(context.Background(), chaosBenchSweep(i), FormatNDJSON, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
