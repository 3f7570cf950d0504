// Package goldencases defines the golden scenario regression corpus:
// one small deterministic trajectory per scenario family × algorithm,
// with a mid-run die-off and re-hatch. The generator (cmd/goldengen,
// wired to go:generate) serializes each case to testdata/golden/*.csv,
// and the root package's golden test replays and byte-compares them, so
// any drift in the engines' trajectories — scenario demand evaluation,
// resize semantics, the feedback RNG stream (agent.FeedbackStreamVersion),
// shard handoff — fails CI with the exact first diverging round.
package goldencases

import (
	"fmt"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
	"taskalloc/internal/wire"
)

// Corpus parameters: small enough that the full grid replays in well
// under a second, large enough that every case exercises joins, leaves,
// the resize path, and at least one full phase of every algorithm.
const (
	ants   = 240
	rounds = 160
	seed   = 7
	shards = 2
)

var base = demand.Vector{40, 60}

// Case is one pinned trajectory.
type Case struct {
	// Name is the golden file's basename (without .csv).
	Name string
	// Rounds is the replay horizon.
	Rounds int
	// Config builds the full simulation configuration. It constructs a
	// fresh demand schedule on every call, so concurrent replays never
	// share generative-schedule state.
	Config func() (taskalloc.Config, error)
}

// families enumerates the scenario demand processes under test. Each
// builder returns a fresh schedule (nil for the static vector).
var families = []struct {
	name  string
	build func() (demand.Schedule, error)
}{
	{"static", func() (demand.Schedule, error) { return nil, nil }},
	{"sinusoid", func() (demand.Schedule, error) {
		return scenario.NewSinusoid(base, []float64{0.4, 0.4}, 80, []float64{0, 3.14159})
	}},
	{"burst", func() (demand.Schedule, error) {
		peak := base.Clone()
		peak[0] *= 2
		return scenario.NewBurst(base, peak, 40, 60, 20)
	}},
	{"randomwalk", func() (demand.Schedule, error) {
		return scenario.NewRandomWalk(base, 5, 10,
			demand.Vector{20, 30}, demand.Vector{80, 120}, 5)
	}},
	{"markov", func() (demand.Schedule, error) {
		rev := demand.Vector{base[1], base[0]}
		p := [][]float64{{0.6, 0.4}, {0.4, 0.6}}
		return scenario.NewMarkovModulated([]demand.Vector{base, rev}, p, 25, 0, 5)
	}},
	// algebra nests every composition operator: a scaled burst spliced
	// into a heavy-tail-perturbed superposition of a sinusoid and a
	// static floor. The whole tree is wire-encodable, so the service
	// replays this trajectory from a decoded document too.
	{"algebra", func() (demand.Schedule, error) {
		peak := base.Clone()
		peak[0] *= 2
		burst, err := scenario.NewBurst(base, peak, 20, 40, 15)
		if err != nil {
			return nil, err
		}
		scaled, err := scenario.NewModulate(burst, []float64{1.25, 0.8})
		if err != nil {
			return nil, err
		}
		sin, err := scenario.NewSinusoid(demand.Vector{30, 40},
			[]float64{0.4, 0.4}, 50, []float64{0, 3.14159})
		if err != nil {
			return nil, err
		}
		sum, err := scenario.NewSuperpose([]demand.Schedule{
			sin, demand.Static{V: demand.Vector{10, 20}}})
		if err != nil {
			return nil, err
		}
		noisy, err := scenario.NewStableNoise(sum, 1.5, 4, 15, 11)
		if err != nil {
			return nil, err
		}
		return scenario.NewCompose([]demand.Schedule{scaled, noisy}, []uint64{0, 80})
	}},
}

var algorithms = []taskalloc.Algorithm{
	taskalloc.Ant, taskalloc.PreciseSigmoid, taskalloc.PreciseAdversarial, taskalloc.Trivial,
}

// All returns the corpus: every scenario family × algorithm.
func All() []Case {
	var out []Case
	for _, fam := range families {
		for _, a := range algorithms {
			fam, a := fam, a
			out = append(out, Case{
				Name:   fam.name + "_" + a.String(),
				Rounds: rounds,
				Config: func() (taskalloc.Config, error) {
					sched, err := fam.build()
					if err != nil {
						return taskalloc.Config{}, err
					}
					cfg := taskalloc.Config{
						Ants:      ants,
						Algorithm: a,
						Epsilon:   0.5,
						Noise:     taskalloc.SigmoidNoise(0.04),
						Seed:      seed,
						Shards:    shards,
						// A die-off and a re-hatch mid-run pin the
						// resize path in every trajectory.
						SizeChanges: []taskalloc.SizeChange{
							{At: 60, To: 160},
							{At: 110, To: ants},
						},
					}
					if sched != nil {
						cfg.Demand = sched
					} else {
						cfg.Demands = base
					}
					return cfg, nil
				},
			})
		}
	}
	return out
}

// CSV replays one case and serializes its trajectory: one row per round
// with the loads, the demands in force, the active colony size, and the
// cumulative switch count (the tightest cheap RNG-stream pin). The
// serialization is wire.TrajectoryRecorder — the same writer the
// simulation service streams trajectories through, so service responses
// byte-compare against these fixtures.
func CSV(c Case) ([]byte, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, fmt.Errorf("goldencases %s: %w", c.Name, err)
	}
	sim, err := taskalloc.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("goldencases %s: %w", c.Name, err)
	}
	defer sim.Close()

	rec := wire.NewTrajectoryRecorder(len(sim.Demands()))
	sim.Run(c.Rounds, rec.Observer(sim))
	return rec.Bytes(), nil
}
