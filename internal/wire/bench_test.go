package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"taskalloc/internal/scenario"
	"taskalloc/internal/wire"
)

// admitGrid builds a 24-cell grid whose cells differ only in seed and
// γ, each carrying its own copy of sc, and returns it decoded from its
// document, as a POST body arrives.
func admitGrid(b *testing.B, ants, rounds int, sc wire.Schedule) wire.Sweep {
	b.Helper()
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 24; i++ {
		sched := sc
		sweep.Jobs = append(sweep.Jobs, wire.Job{Meta: []string{"bench", fmt.Sprint(i)}, Rounds: rounds,
			Config: wire.Config{Ants: ants, Gamma: 1 / float64(16+4*(i%4)), Seed: uint64(i + 1), Shards: 1, Schedule: &sched}})
	}
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		b.Fatal(err)
	}
	if sweep, err = wire.DecodeSweep(bytes.NewReader(doc)); err != nil {
		b.Fatal(err)
	}
	return sweep
}

// BenchmarkAdmit times a backend's work on a fresh sweep before its
// first simulation: admission's one pass (bounds, decode, sweep ID,
// syntactic hash and result keys) and the decode of every cell it runs.
// Two grids: "step" is 24 tiny cells, each with its own step schedule,
// shaped like layerbench's grid-hetero grids; "frozen" is 24 cells
// carrying one snapshot of a sinusoid (period 64) over 2^16 rounds,
// which changes at nearly every round, so each cell's encoding is
// large and decoding it freezes every round.
func BenchmarkAdmit(b *testing.B) {
	sin, err := scenario.NewSinusoid([]int{400, 600}, []float64{0.5, 0.3}, 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	fz, err := scenario.Freeze(sin, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	frozen, err := wire.FromSchedule(fz)
	if err != nil {
		b.Fatal(err)
	}
	for _, grid := range []struct {
		name  string
		sweep wire.Sweep
	}{
		{"step", admitGrid(b, 200, 150, wire.Schedule{Kind: "step", Base: []int{40, 60}, When: []uint64{75}, Vectors: [][]int{{60, 40}}})},
		{"frozen", admitGrid(b, 1000, 1<<16, frozen)},
	} {
		idx := make([]int, len(grid.sweep.Jobs))
		for i := range idx {
			idx[i] = i
		}
		b.Run(grid.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g, err := wire.Admit(grid.sweep, true)
				if err != nil {
					b.Fatal(err)
				}
				g.Decode(idx)
			}
		})
	}
}
