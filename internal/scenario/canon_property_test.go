package scenario_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
)

// TestCanonRandomTrees is the property check behind the per-rule cases
// in canon_test.go, over the nested trees the semantic caches key on:
// random algebra trees of at most three levels, drawn from every
// schedule family and combinator with degenerate parameters (equal
// vectors, zero amplitude or noise, pinned walks, one-regime chains,
// all-ones scales, single parts) common enough that the rules fire and
// nest. Canon must leave At unchanged at every round of the horizon,
// and a second Canon must return the normal form unchanged.
func TestCanonRandomTrees(t *testing.T) {
	const (
		trees   = 5000
		horizon = 700
	)
	for i := 0; i < trees; i++ {
		seed := int64(i) + 1
		// Generative schedules memoize their sample paths, so the
		// original and the tree Canon normalizes are separate instances.
		orig := randomSchedule(rand.New(rand.NewSource(seed)), 3)
		norm := scenario.Canon(randomSchedule(rand.New(rand.NewSource(seed)), 3))
		if again := scenario.Canon(norm); !reflect.DeepEqual(again, norm) {
			t.Fatalf("tree %d: Canon not idempotent: %T became %T", seed, norm, again)
		}
		for tt := uint64(0); tt <= horizon; tt++ {
			if a, b := orig.At(tt), norm.At(tt); !a.Equal(b) {
				t.Fatalf("tree %d (%T, normal form %T): At(%d) = %v, normal form %v", seed, orig, norm, tt, a, b)
			}
		}
	}
}

// randomVector draws from a small pool of two-task vectors, so equal
// neighbours — which several rules fold — are common.
func randomVector(r *rand.Rand) demand.Vector {
	pool := []demand.Vector{{40, 60}, {70, 30}, {25, 25}}
	return pool[r.Intn(len(pool))].Clone()
}

// randomRounds draws n strictly increasing rounds below 300, starting
// at round 0 when zero is set.
func randomRounds(r *rand.Rand, n int, zero bool) []uint64 {
	out := make([]uint64, n)
	next := uint64(r.Intn(40))
	if zero {
		next = 0
	}
	for i := range out {
		out[i] = next
		next += 1 + uint64(r.Intn(80))
	}
	return out
}

// randomSchedule draws a schedule tree of at most levels levels: a
// leaf of any family, or a combinator (or freeze) over smaller trees.
func randomSchedule(r *rand.Rand, levels int) demand.Schedule {
	kinds := 7 // the leaf families
	if levels > 1 {
		kinds = 12 // a freeze, or a combinator (four cases below)
	}
	must := func(s demand.Schedule, err error) demand.Schedule {
		if err != nil {
			panic(fmt.Sprintf("random schedule: %v", err))
		}
		return s
	}
	switch r.Intn(kinds) {
	case 0:
		return demand.Static{V: randomVector(r)}
	case 1:
		n := r.Intn(4)
		changes := make([]demand.Vector, n)
		for i := range changes {
			changes[i] = randomVector(r)
		}
		return must(demand.NewStep(randomVector(r), randomRounds(r, n, r.Intn(3) == 0), changes))
	case 2:
		var amp, phase []float64
		if r.Intn(2) == 0 {
			amp = []float64{0.3, 0.1 * float64(r.Intn(3))}
		}
		if r.Intn(2) == 0 {
			phase = []float64{0.5, 1}
		}
		return must(scenario.NewSinusoid(randomVector(r), amp, []float64{7, 50, 96.5}[r.Intn(3)], phase))
	case 3:
		length := 1 + uint64(r.Intn(10))
		every := uint64(0)
		if r.Intn(2) == 0 {
			every = length + 1 + uint64(r.Intn(40))
		}
		return must(scenario.NewBurst(randomVector(r), randomVector(r), uint64(r.Intn(60)), every, length))
	case 4:
		base := randomVector(r)
		lo, hi := base.Clone(), base.Clone()
		if r.Intn(2) == 0 {
			lo, hi = demand.Vector{1, 1}, demand.Vector{100, 100}
		}
		return must(scenario.NewRandomWalk(base, 1+r.Intn(3), 1+uint64(r.Intn(20)), lo, hi, r.Uint64()))
	case 5:
		n := 1 + r.Intn(3)
		regimes := make([]demand.Vector, n)
		p := make([][]float64, n)
		for i := range regimes {
			regimes[i] = randomVector(r)
			p[i] = make([]float64, n)
			if r.Intn(2) == 0 {
				p[i][r.Intn(n)] = 1 // a point mass: a deterministic step
			} else {
				for j := range p[i] {
					p[i][j] = 1 / float64(n)
				}
			}
		}
		return must(scenario.NewMarkovModulated(regimes, p, 1+uint64(r.Intn(20)), r.Intn(n), r.Uint64()))
	case 6:
		n := 1 + r.Intn(4)
		vecs := make([]demand.Vector, n)
		for i := range vecs {
			vecs[i] = randomVector(r)
		}
		return must(scenario.NewTrace(randomRounds(r, n, r.Intn(2) == 0), vecs))
	case 7:
		// A frozen snapshot of a smaller tree, over a horizon that may
		// end before the test's.
		return must(scenario.Freeze(randomSchedule(r, levels-1), uint64(r.Intn(400))))
	}
	parts := make([]demand.Schedule, 1+r.Intn(3))
	for i := range parts {
		parts[i] = randomSchedule(r, levels-1)
	}
	switch r.Intn(5) {
	case 0, 1:
		return must(scenario.NewCompose(parts, randomRounds(r, len(parts), true)))
	case 2:
		scales := [][]float64{{1, 1}, {1, 1.5}, {0.5, 1.5}}
		return must(scenario.NewModulate(parts[0], scales[r.Intn(len(scales))]))
	case 3:
		return must(scenario.NewSuperpose(parts))
	default:
		sigma := 0.0
		if r.Intn(2) == 0 {
			sigma = 3
		}
		return must(scenario.NewStableNoise(parts[0], []float64{0.8, 2}[r.Intn(2)], sigma, 1+uint64(r.Intn(10)), r.Uint64()))
	}
}
