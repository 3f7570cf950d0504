package bisect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"taskalloc"
	"taskalloc/internal/agent"
	"taskalloc/internal/wire"
)

// regretCurve is one random request's regret as a pure function of γ:
// a smooth part, an optional step (which refinement chases down to the
// width floor), and an optional band of failing cells (NaN bands).
type regretCurve struct {
	amp, freq, slope float64
	stepAt, stepBy   float64 // stepBy 0 = no step
	failLo, failHi   float64 // failLo == failHi = no failing band
}

func randomCurve(rng *rand.Rand, lo, hi float64) regretCurve {
	c := regretCurve{
		amp:   rng.Float64() * 20,
		freq:  1 + rng.Float64()*400,
		slope: (rng.Float64() - 0.5) * 2000,
	}
	if rng.Intn(3) == 0 {
		c.stepAt = lo + rng.Float64()*(hi-lo)
		c.stepBy = 1 + rng.Float64()*50
	}
	if rng.Intn(5) == 0 {
		a, b := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
		c.failLo, c.failHi = math.Min(a, b), math.Max(a, b)
	}
	return c
}

// cell evaluates γ. Everything but Cached is a function of γ alone.
func (c regretCurve) cell(g float64, cached bool) wire.BisectCell {
	out := wire.BisectCell{Gamma: g, JobHash: fmt.Sprintf("%016x", math.Float64bits(g)), Cached: cached}
	if g >= c.failLo && g < c.failHi {
		out.Err = "fake: cell failed"
		return out
	}
	r := c.amp*math.Sin(c.freq*g) + c.slope*g
	if c.stepBy != 0 && g >= c.stepAt {
		r += c.stepBy
	}
	out.Report = &taskalloc.Report{AvgRegret: r}
	return out
}

// fakeEvaluator serves curve cells with a random latency on some calls
// and a random Cached flag per cell, recording every batch it was asked
// for.
func fakeEvaluator(curve regretCurve, rng *rand.Rand, batches *[][]float64) Evaluator {
	return func(gammas []float64) ([]wire.BisectCell, error) {
		*batches = append(*batches, append([]float64(nil), gammas...))
		if rng.Intn(8) == 0 {
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
		}
		cells := make([]wire.BisectCell, len(gammas))
		for i, g := range gammas {
			cells[i] = curve.cell(g, rng.Intn(2) == 0)
		}
		return cells, nil
	}
}

// withoutProvenance drops the Cached flags, the only part of a cell
// that may differ between two executors of one search.
func withoutProvenance(cells []wire.BisectCell) []wire.BisectCell {
	out := append([]wire.BisectCell(nil), cells...)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

// sameBands compares interval lists, treating NaN bands as equal.
func sameBands(a, b []wire.BisectInterval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi {
			return false
		}
		if a[i].Band != b[i].Band && !(math.IsNaN(a[i].Band) && math.IsNaN(b[i].Band)) {
			return false
		}
	}
	return true
}

// TestRunProperties runs ~1000 random requests, each twice against
// evaluators that differ in latency and caching, and checks the search
// contract: the path and result do not depend on the executor, the
// budget is respected (and spent whenever nothing else stopped the
// search), the intervals tile the requested range, Converged means
// every band is within target, and CacheHits counts the cached cells.
func TestRunProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	for it := 0; it < 1000; it++ {
		lo := 1e-4 + rng.Float64()*0.03
		hi := lo + 1e-6 + rng.Float64()*(agent.MaxGamma-lo-1e-6)
		req := wire.BisectRequest{
			Version:    wire.V1,
			GammaLo:    lo,
			GammaHi:    hi,
			TargetBand: math.Pow(10, -2+4*rng.Float64()),
			MaxEvals:   2 + rng.Intn(80),
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("iter %d: generated an invalid request: %v", it, err)
		}
		curve := randomCurve(rng, lo, hi)

		var pathA, pathB [][]float64
		a, err := Run(req, fakeEvaluator(curve, rand.New(rand.NewSource(int64(2*it))), &pathA))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(req, fakeEvaluator(curve, rand.New(rand.NewSource(int64(2*it+1))), &pathB))
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(pathA, pathB) {
			t.Fatalf("iter %d: γ sequence depends on latency/caching:\n%v\n%v", it, pathA, pathB)
		}
		if !reflect.DeepEqual(withoutProvenance(a.Cells), withoutProvenance(b.Cells)) {
			t.Fatalf("iter %d: cells depend on latency/caching", it)
		}
		if !sameBands(a.Intervals, b.Intervals) || a.Evals != b.Evals || a.Converged != b.Converged {
			t.Fatalf("iter %d: intervals/evals/converged depend on latency/caching", it)
		}

		for _, resp := range []wire.BisectResponse{a, b} {
			if resp.Evals > req.MaxEvals {
				t.Fatalf("iter %d: %d evals over the %d budget", it, resp.Evals, req.MaxEvals)
			}
			if len(resp.Cells) != resp.Evals {
				t.Fatalf("iter %d: %d cells for %d evals", it, len(resp.Cells), resp.Evals)
			}
			for k := 1; k < len(resp.Cells); k++ {
				if resp.Cells[k-1].Gamma >= resp.Cells[k].Gamma {
					t.Fatalf("iter %d: cells not strictly ascending at %d", it, k)
				}
			}
			hits := 0
			for _, c := range resp.Cells {
				if c.Cached {
					hits++
				}
			}
			if resp.CacheHits != hits {
				t.Fatalf("iter %d: CacheHits = %d, %d cells cached", it, resp.CacheHits, hits)
			}

			iv := resp.Intervals
			if len(iv) == 0 || iv[0].Lo != req.GammaLo || iv[len(iv)-1].Hi != req.GammaHi {
				t.Fatalf("iter %d: intervals %v do not span [%g, %g]", it, iv, req.GammaLo, req.GammaHi)
			}
			allWithin, stoppedEarly := true, false
			for k, in := range iv {
				if in.Lo >= in.Hi {
					t.Fatalf("iter %d: interval %d is empty or reversed: %+v", it, k, in)
				}
				if k > 0 && iv[k-1].Hi != in.Lo {
					t.Fatalf("iter %d: gap or overlap between intervals %d and %d: %+v %+v",
						it, k-1, k, iv[k-1], in)
				}
				within := in.Band <= req.TargetBand // false for NaN
				allWithin = allWithin && within
				if math.IsNaN(in.Band) || !within && in.Hi-in.Lo < GammaWidthFloor {
					stoppedEarly = true // a failed endpoint or the width floor ended this segment
				}
			}
			if resp.Converged != allWithin {
				t.Fatalf("iter %d: Converged = %v but every-band-within-target = %v", it, resp.Converged, allWithin)
			}
			if !resp.Converged && !stoppedEarly && resp.Evals != req.MaxEvals {
				t.Fatalf("iter %d: unconverged search stopped at %d of %d evals with refinable segments left",
					it, resp.Evals, req.MaxEvals)
			}
		}
	}
}

// TestSearchDerivesCells: a Search hashes its ID over the request as
// sent, applies the budget default, clears Trajectory, and hands its
// evaluator every cell as the template at γ with that job's syntactic
// JobHash and its trajectory-cleared SemanticHash as key; the response
// carries Version and ID, and Disposition is "hit" only when every
// evaluated cell was cached.
func TestSearchDerivesCells(t *testing.T) {
	req := wire.BisectRequest{
		Version: wire.V1,
		Job: wire.Job{Rounds: 40, Trajectory: true,
			Config: wire.Config{Ants: 50, Demands: []int{10, 15}, Seed: 3}},
		GammaLo: 0.01, GammaHi: 0.05, TargetBand: 1e-9,
	}
	wantID, err := wire.SemanticBisectHash(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != wantID {
		t.Fatalf("ID %s, want SemanticBisectHash of the request as sent, %s", s.ID, wantID)
	}
	for _, cached := range []bool{true, false} {
		resp, err := s.Run(func(g *wire.Grid, cells []wire.BisectCell) error {
			for i, j := range g.Jobs {
				want := req.Job
				want.Trajectory = false
				want.Config.Gamma = cells[i].Gamma
				hash, err := wire.JobHash(want)
				if err != nil {
					t.Fatal(err)
				}
				key, err := wire.SemanticHash(want)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(j, want) || cells[i].JobHash != hash || g.Keys[i] != key {
					t.Errorf("γ=%v: job %+v, hash %s, key %s; want %+v, %s, %s",
						cells[i].Gamma, j, cells[i].JobHash, g.Keys[i], want, hash, key)
				}
				cells[i].Cached = cached || i > 0
				cells[i].Report = &taskalloc.Report{AvgRegret: cells[i].Gamma * 1000}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Version != wire.V1 || resp.ID != wantID || resp.Evals != wire.MaxBisectEvals {
			t.Errorf("response version %q, id %s, %d evals; want %q, %s, the default budget of %d",
				resp.Version, resp.ID, resp.Evals, wire.V1, wantID, wire.MaxBisectEvals)
		}
		if want := map[bool]string{true: "hit", false: "miss"}[cached]; Disposition(resp) != want {
			t.Errorf("%d of %d cells cached: disposition %q, want %q", resp.CacheHits, resp.Evals, Disposition(resp), want)
		}
	}
}
