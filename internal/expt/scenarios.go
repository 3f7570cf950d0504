package expt

import (
	"fmt"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
	"taskalloc/internal/sweeprun"
)

func init() {
	register(Experiment{
		ID:    "S5",
		Title: "Scenario families: ensemble regret bands per demand process",
		Paper: "Section 6 extension (time-varying demand, ensemble view)",
		Run:   runS5,
	})
}

// runS5 runs the scenario-family grid — every generative demand process
// × {Ant, Precise Sigmoid} × seeds — through the multi-simulation batch
// runner and tables the ensemble statistics. It is the S-series'
// ensemble counterpart to S1's single demand-change trajectory: the
// paper's c-closeness claims are statements about regret bands, so each
// cell reports mean ± std (and the p90 tail) over the seed ensemble
// rather than one run.
func runS5(p Params) (*Result, error) {
	n, rounds, seeds := 4000, 6000, 3
	base := demand.Vector{600, 900}
	if p.Quick {
		n, rounds, seeds = 1200, 1500, 2
		base = demand.Vector{180, 270}
	}

	type family struct {
		name  string
		build func() (demand.Schedule, error)
	}
	families := []family{
		{"sinusoid", func() (demand.Schedule, error) {
			return scenario.NewSinusoid(base, []float64{0.3, 0.3}, float64(rounds)/3, []float64{0, 3.14159})
		}},
		{"burst", func() (demand.Schedule, error) {
			peak := base.Clone()
			peak[0] *= 2
			return scenario.NewBurst(base, peak, uint64(rounds)/4, uint64(rounds)/2, uint64(rounds)/10)
		}},
		{"randomwalk", func() (demand.Schedule, error) {
			lo := make(demand.Vector, len(base))
			hi := make(demand.Vector, len(base))
			for j, d := range base {
				lo[j], hi[j] = d/2, d*3/2
			}
			return scenario.NewRandomWalk(base, base.Min()/10, uint64(rounds)/20, lo, hi, p.Seed)
		}},
		{"markov", func() (demand.Schedule, error) {
			rev := demand.Vector{base[1], base[0]}
			pm := [][]float64{{0.6, 0.4}, {0.4, 0.6}}
			return scenario.NewMarkovModulated([]demand.Vector{base, rev}, pm, uint64(rounds)/8, 0, p.Seed)
		}},
	}
	algos := []taskalloc.Algorithm{taskalloc.Ant, taskalloc.PreciseSigmoid}

	// One heterogeneous job grid, executed by one batch-runner call over
	// one shared worker pool: families × algorithms × seeds, in table
	// row order (the runner's ordered collector keeps groups contiguous).
	var jobs []sweeprun.Job
	for _, fam := range families {
		sched, err := fam.build()
		if err != nil {
			return nil, err
		}
		frozen, err := scenario.Freeze(sched, uint64(rounds)+1)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			for s := 0; s < seeds; s++ {
				jobs = append(jobs, sweeprun.Job{
					Meta: []string{fam.name, a.String()},
					Config: taskalloc.Config{
						Ants:      n,
						Demand:    frozen,
						Algorithm: a,
						Epsilon:   0.5,
						Noise:     taskalloc.SigmoidNoise(0.02),
						Seed:      p.Seed + uint64(s),
						Shards:    2,
						BurnIn:    uint64(rounds) / 2,
					},
					Rounds: rounds,
				})
			}
		}
	}
	results := sweeprun.Run(jobs, sweeprun.Options{})

	tbl := Table{
		Title: fmt.Sprintf("S5: scenario families, n=%d, %d rounds, %d seeds (ensemble per cell)",
			n, rounds, seeds),
		Columns: []string{"family", "algorithm", "avg regret (mean±std)", "regret p90",
			"closeness (mean)", "switches/round (mean)"},
	}
	for lo := 0; lo < len(results); lo += seeds {
		group := results[lo : lo+seeds]
		for _, r := range group {
			if r.Err != nil {
				return nil, fmt.Errorf("S5 %v seed job: %w", r.Job.Meta, r.Err)
			}
		}
		sum := sweeprun.Summarize(group)
		tbl.Rows = append(tbl.Rows, []string{
			group[0].Job.Meta[0], group[0].Job.Meta[1],
			fmt.Sprintf("%s±%s", f(sum.AvgRegret.Mean), f(sum.AvgRegret.Std)),
			f(sum.AvgRegret.P90),
			f(sum.Closeness.Mean),
			f(sum.SwitchesPerRound.Mean),
		})
	}
	return &Result{
		Tables: []Table{tbl},
		Notes: []string{
			"Each cell aggregates an ensemble run by the multi-simulation batch runner",
			"(shared worker pool, deterministic collection); regret bands, not single paths.",
			"Ant tracks every family at ~γΣd-scale regret but churns (switches/round);",
			"Precise Sigmoid switches ~100× less, at the cost of ε·γ/c_χ-slow convergence —",
			"at these horizons it is still filling, so its regret is dominated by ramp-up,",
			"not steady-state tracking error.",
		},
	}, nil
}
