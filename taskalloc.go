// Package taskalloc is a simulation library for self-stabilizing
// distributed task allocation under noisy binary feedback, reproducing
// "Self-Stabilizing Task Allocation In Spite of Noise" (Dornhaus, Lynch,
// Mallmann-Trenn, Pajak, Radeva; SPAA 2020).
//
// A colony of n ants allocates itself over k tasks with demands d(j).
// Each synchronous round every ant receives, per task, a binary
// lack/overload signal that is a noisy function of the task's deficit,
// and switches tasks using only constant memory. The package provides
// the paper's algorithms (Algorithm Ant, Algorithm Precise Sigmoid,
// Algorithm Precise Adversarial, and the trivial baseline), its noise
// models (sigmoid, adversarial with pluggable grey-zone strategies,
// noiseless, correlated), two simulation engines (an agent-based one
// sharded across goroutines and a mean-field aggregate one), and the
// regret metrics the paper's theorems are stated in.
//
// Quickstart:
//
//	sim, err := taskalloc.New(taskalloc.Config{
//		Ants:    10000,
//		Demands: []int{1500, 2500},
//		Noise:   taskalloc.SigmoidNoise(0.05),
//	})
//	if err != nil { ... }
//	sim.Run(20000, nil)
//	fmt.Println(sim.Report())
//
// The experiment harness that regenerates every figure and theorem table
// of the paper lives in cmd/experiments; see DESIGN.md and EXPERIMENTS.md.
package taskalloc

// The golden scenario regression corpus (testdata/golden/*.csv, replayed
// and byte-compared by golden_test.go) is regenerated here. Only rerun
// this when a trajectory change is intended — see cmd/goldengen.
//go:generate go run ./cmd/goldengen

import (
	"errors"
	"fmt"
	"math"

	"taskalloc/internal/agent"
	"taskalloc/internal/colony"
	"taskalloc/internal/demand"
	"taskalloc/internal/meanfield"
	"taskalloc/internal/metrics"
	"taskalloc/internal/noise"
	"taskalloc/internal/scenario"
)

// Algorithm selects the ant automaton.
type Algorithm int

const (
	// Ant is Algorithm Ant (Theorem 3.1): two-round phases, two spaced
	// samples, 5·(γ/γ*)-close under both noise models.
	Ant Algorithm = iota
	// PreciseSigmoid is Algorithm Precise Sigmoid (Theorem 3.2):
	// median-amplified samples, ε-close under sigmoid noise; requires
	// Epsilon.
	PreciseSigmoid
	// PreciseAdversarial is Algorithm Precise Adversarial (Theorem 3.6):
	// drain-and-hold phases, (1+ε)-close under adversarial noise;
	// requires Epsilon.
	PreciseAdversarial
	// Trivial is the memoryless baseline of Appendix D: join on lack,
	// leave on overload. It oscillates under the synchronous scheduler
	// and behaves well only under the sequential one.
	Trivial
)

// algorithmNames is the one table of algorithm names, indexed by
// Algorithm: String and ParseAlgorithm both read it.
var algorithmNames = [...]string{
	Ant:                "ant",
	PreciseSigmoid:     "precise-sigmoid",
	PreciseAdversarial: "precise-adversarial",
	Trivial:            "trivial",
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm is the inverse of String: it returns the algorithm
// whose name is s, and an error naming s for any other string.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if name == s {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// NoiseKind selects the feedback model family.
type NoiseKind int

const (
	// NoiseSigmoid draws per-ant independent signals with
	// P[lack] = 1/(1+e^{−λΔ}).
	NoiseSigmoid NoiseKind = iota
	// NoiseAdversarial is deterministic and correct outside the grey
	// zone [−γad·d, γad·d] and controlled by GreyStrategy inside it.
	NoiseAdversarial
	// NoisePerfect is the noiseless binary feedback of Cornejo et al.
	NoisePerfect
)

// Noise configures the feedback model.
type Noise struct {
	Kind NoiseKind
	// Lambda is the sigmoid steepness (NoiseSigmoid). Set it directly,
	// or leave 0 and set GammaStar to place the critical value.
	Lambda float64
	// GammaStar, when nonzero with NoiseSigmoid and Lambda == 0,
	// chooses λ so that the critical value equals GammaStar.
	GammaStar float64
	// GammaAd is the adversarial threshold (NoiseAdversarial).
	GammaAd float64
	// GreyStrategy names the grey-zone behavior for NoiseAdversarial:
	// one of "truthful", "inverted", "alternating", "always-lack",
	// "always-overload", "random". Empty means "inverted" (worst case).
	GreyStrategy string
	// CorrelatedFlipProb, if positive, wraps the model in colony-wide
	// correlated sign flips with this per-task per-round probability
	// (Remark 3.4).
	CorrelatedFlipProb float64
}

// SigmoidNoise returns a sigmoid Noise whose critical value γ* will be
// placed at gammaStar for the simulation's n and min demand.
func SigmoidNoise(gammaStar float64) Noise {
	return Noise{Kind: NoiseSigmoid, GammaStar: gammaStar}
}

// AdversarialNoise returns a worst-case (inverted grey zone) adversarial
// Noise with threshold gammaAd.
func AdversarialNoise(gammaAd float64) Noise {
	return Noise{Kind: NoiseAdversarial, GammaAd: gammaAd}
}

// PerfectNoise returns the noiseless binary feedback model.
func PerfectNoise() Noise { return Noise{Kind: NoisePerfect} }

// InitKind selects the initial assignment of ants.
type InitKind int

const (
	// InitIdle starts every ant idle (the paper's canonical start).
	InitIdle InitKind = iota
	// InitUniform assigns each ant uniformly over {idle, task 0..k−1}.
	InitUniform
	// InitFlood places every ant on task 0 (adversarial start).
	InitFlood
	// InitExact matches the demands exactly (zero initial regret).
	InitExact
)

// DemandChange replaces the demand vector from round At onward.
type DemandChange struct {
	At      uint64
	Demands []int
}

// SizeChange resizes the active colony to To ants from round At onward —
// ants dying (shrink) or hatching (grow) per Section 6. Changes are
// applied by Run; see Simulation.Resize for the semantics.
type SizeChange struct {
	At uint64
	To int
}

// NoiseChange switches the feedback model from round At onward — a
// noise-regime change (e.g. weather degrading signal quality). Each
// entry is a full Noise configuration resolved like Config.Noise.
type NoiseChange struct {
	At    uint64
	Noise Noise
}

// Config assembles a simulation. Zero values get defaults where noted.
type Config struct {
	// Ants is the colony size n.
	Ants int
	// Demands is the per-task demand vector d.
	Demands []int
	// Algorithm defaults to Ant.
	Algorithm Algorithm
	// Gamma is the learning rate γ; 0 means 1/16 (the maximum the
	// analysis allows).
	Gamma float64
	// Epsilon is the precision of the Precise algorithms.
	Epsilon float64
	// Noise defaults to SigmoidNoise(Gamma/2).
	Noise Noise
	// Init defaults to InitIdle.
	Init InitKind
	// DemandChanges optionally schedules demand vector changes.
	DemandChanges []DemandChange
	// Demand optionally supplies a full demand schedule — the scenario
	// axis. It generalizes Demands+DemandChanges (set at most one of the
	// two forms): the internal/scenario package provides generative
	// families (sinusoid, burst, random walk, Markov-modulated, trace
	// replay). The round-1 vector Demand.At(1) anchors validation, noise
	// placement, and InitExact.
	Demand demand.Schedule
	// SizeChanges optionally schedules colony resizes (ants dying and
	// hatching, Section 6), applied by Run at their rounds. Entries must
	// have strictly increasing At >= 1 and To in [1, Ants]. The
	// mean-field engine applies each change at the next phase boundary
	// (at most one round late); the agent engines apply it exactly.
	SizeChanges []SizeChange
	// NoiseChanges optionally schedules feedback-regime switches,
	// resolved against the demand in force at the switch round. Entries
	// must have strictly increasing At >= 1.
	NoiseChanges []NoiseChange
	// Sequential runs the Appendix D.1 scheduler (one random ant per
	// round) instead of the synchronous one. Shards must be left 0.
	Sequential bool
	// MeanField replaces the agent-based engine with the aggregate
	// binomial engine (O(2^k) per round instead of O(n·k); statistically
	// equivalent dynamics). Only Algorithm Ant is supported, and it is
	// mutually exclusive with Sequential.
	MeanField bool
	// Seed drives all randomness (default 1 if zero).
	Seed uint64
	// Shards is the parallel fan-out of the synchronous engine
	// (0 = GOMAXPROCS). Trajectories are reproducible per (Seed, Shards).
	Shards int
	// Pool, if non-nil, makes the synchronous engine check its persistent
	// shard workers out of a shared reservoir (and return them on Close)
	// instead of owning them, so many short-lived simulations — a sweep —
	// reuse one set of parked goroutines. See NewWorkerPool. Ignored when
	// the engine runs single-sharded, Sequential, or MeanField.
	// Trajectories are unaffected.
	Pool *WorkerPool
	// BurnIn excludes this many initial rounds from Report averages.
	BurnIn uint64
	// CheckAssumptions, if true, rejects configs violating the paper's
	// Assumptions 2.1 (d(j) = Ω(log n), Σd ≤ n/2).
	CheckAssumptions bool
}

// WorkerPool is a shared reservoir of persistent shard workers (see
// Config.Pool): simulations built over one pool check their worker set
// out at New and return it on Close, so a sweep of many short-lived
// simulations reuses one set of parked goroutines instead of spawning
// per run. Safe for concurrent use by simulations running in parallel.
// Close the pool when the sweep is done; sets still checked out are
// reaped as their simulations close.
type WorkerPool = colony.Pool

// NewWorkerPool returns an empty shared worker reservoir.
func NewWorkerPool() *WorkerPool { return colony.NewPool() }

// Observer receives the state after every round. Slices are owned by the
// simulation and must not be retained.
type Observer func(round uint64, loads []int, demands []int)

// Simulation is a configured run. Not safe for concurrent use.
type Simulation struct {
	cfg       Config
	k         int
	sched     demand.Schedule
	engine    *colony.Engine
	seqEngine *colony.Sequential
	mfEngine  *meanfield.Engine
	rec       *metrics.Recorder
	model     noise.Model
	timeline  scenario.Timeline // SizeChanges as events Run drives
}

// New validates cfg and builds a Simulation.
func New(cfg Config) (*Simulation, error) {
	if cfg.Ants <= 0 {
		return nil, errors.New("taskalloc: need Ants >= 1")
	}
	if cfg.Sequential && cfg.Shards != 0 {
		return nil, errors.New("taskalloc: Sequential runs one ant per round and ignores sharding; leave Shards = 0")
	}

	// Demand schedule: a full Demand schedule, or the Demands
	// (+DemandChanges) form.
	var sched demand.Schedule
	switch {
	case cfg.Demand != nil:
		if len(cfg.Demands) > 0 || len(cfg.DemandChanges) > 0 {
			return nil, errors.New("taskalloc: Demand is mutually exclusive with Demands/DemandChanges")
		}
		sched = cfg.Demand
	case len(cfg.DemandChanges) > 0:
		initial := demand.Vector(cfg.Demands)
		if err := initial.Validate(); err != nil {
			return nil, err
		}
		when := make([]uint64, len(cfg.DemandChanges))
		changes := make([]demand.Vector, len(cfg.DemandChanges))
		for i, c := range cfg.DemandChanges {
			when[i] = c.At
			changes[i] = demand.Vector(c.Demands)
		}
		step, err := demand.NewStep(initial, when, changes)
		if err != nil {
			return nil, err
		}
		sched = step
	default:
		sched = demand.Static{V: demand.Vector(cfg.Demands)}
	}
	// dem anchors validation, noise placement, and InitExact: the vector
	// in force at round 1.
	dem := sched.At(1).Clone()
	if err := dem.Validate(); err != nil {
		return nil, err
	}
	k := sched.Tasks()
	if len(dem) != k {
		return nil, fmt.Errorf("taskalloc: schedule reports %d tasks but yields %d", k, len(dem))
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = agent.MaxGamma
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.CheckAssumptions {
		if err := dem.CheckAssumptions(cfg.Ants, 1); err != nil {
			return nil, err
		}
	}

	// Scenario events: SizeChanges and NoiseChanges become one
	// scenario.Timeline, which owns the ordering/bounds validation, the
	// noise-model wrapping, and the Run-time resize driving. Resizes are
	// validated before noise placement consumes ActiveAt, so a bad
	// SizeChange reports itself rather than a misplaced γ*.
	timeline := scenario.Timeline{Resizes: make([]scenario.Resize, len(cfg.SizeChanges))}
	for i, c := range cfg.SizeChanges {
		timeline.Resizes[i] = scenario.Resize{At: c.At, To: c.To}
	}
	if err := timeline.Validate(cfg.Ants); err != nil {
		return nil, fmt.Errorf("taskalloc: %w", err)
	}
	// Noise model, then any scheduled regime switches. Each is resolved
	// against the demand and colony size in force at its round, so
	// placement accounts for planned die-offs (Timeline.ActiveAt).
	model, err := buildNoiseModel(cfg.Noise, cfg.Gamma, timeline.ActiveAt(cfg.Ants, 1), dem.Min(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i, c := range cfg.NoiseChanges {
		m, err := buildNoiseModel(c.Noise, cfg.Gamma, timeline.ActiveAt(cfg.Ants, c.At), sched.At(c.At).Min(), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("taskalloc: NoiseChanges[%d]: %w", i, err)
		}
		timeline.Switches = append(timeline.Switches, scenario.NoiseSwitch{At: c.At, Model: m})
	}
	// Second Validate covers the just-built Switches (Resizes re-check
	// is free and keeps this a single authority).
	if err := timeline.Validate(cfg.Ants); err != nil {
		return nil, fmt.Errorf("taskalloc: %w", err)
	}
	model = timeline.Model(model)

	// Algorithm factory.
	var factory agent.Factory
	params := agent.DefaultParams(cfg.Gamma)
	params.Epsilon = cfg.Epsilon
	switch cfg.Algorithm {
	case Ant:
		if err := params.Validate(false); err != nil {
			return nil, err
		}
		factory = agent.AntFactory(k, params)
	case PreciseSigmoid:
		if err := params.Validate(true); err != nil {
			return nil, err
		}
		factory = agent.PreciseSigmoidFactory(k, params)
	case PreciseAdversarial:
		if err := params.Validate(true); err != nil {
			return nil, err
		}
		factory = agent.PreciseAdversarialFactory(k, params)
	case Trivial:
		factory = agent.TrivialFactory(k)
	default:
		return nil, fmt.Errorf("taskalloc: unknown algorithm %d", cfg.Algorithm)
	}

	// Initializer.
	var init colony.Initializer
	switch cfg.Init {
	case InitIdle:
		init = colony.AllIdle
	case InitUniform:
		init = colony.UniformRandom
	case InitFlood:
		init = colony.Concentrated(0)
	case InitExact:
		if dem.Sum() > cfg.Ants {
			return nil, errors.New("taskalloc: InitExact needs Σd <= Ants")
		}
		init = colony.Exact(dem)
	default:
		return nil, fmt.Errorf("taskalloc: unknown init kind %d", cfg.Init)
	}

	ccfg := colony.Config{
		N:        cfg.Ants,
		Schedule: sched,
		Model:    model,
		Factory:  factory,
		Init:     init,
		Seed:     cfg.Seed,
		Shards:   cfg.Shards,
		Pool:     cfg.Pool,
	}
	s := &Simulation{
		cfg:      cfg,
		k:        k,
		sched:    sched,
		rec:      metrics.NewRecorder(k, cfg.Gamma, params.Cs, cfg.BurnIn),
		model:    model,
		timeline: timeline,
	}
	switch {
	case cfg.MeanField && cfg.Sequential:
		return nil, errors.New("taskalloc: MeanField and Sequential are mutually exclusive")
	case cfg.MeanField:
		if cfg.Algorithm != Ant {
			return nil, errors.New("taskalloc: MeanField supports only the Ant algorithm")
		}
		if cfg.Init != InitIdle && cfg.Init != InitExact {
			return nil, errors.New("taskalloc: MeanField supports InitIdle or InitExact")
		}
		var initLoads []int
		if cfg.Init == InitExact {
			initLoads = append([]int(nil), dem...)
		}
		s.mfEngine, err = meanfield.New(meanfield.Config{
			N:         cfg.Ants,
			Schedule:  sched,
			Model:     model,
			Params:    params,
			InitLoads: initLoads,
			Seed:      cfg.Seed,
		})
	case cfg.Sequential:
		s.seqEngine, err = colony.NewSequential(ccfg)
	default:
		s.engine, err = colony.New(ccfg)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildNoiseModel resolves one Noise configuration into a model for a
// colony of n ants whose minimum anchoring demand is dMin (the round the
// model takes force).
func buildNoiseModel(nz Noise, gamma float64, n, dMin int, seed uint64) (noise.Model, error) {
	if nz.Kind == NoiseSigmoid && nz.Lambda == 0 {
		target := nz.GammaStar
		if target == 0 {
			target = gamma / 2
		}
		nz.Lambda = noise.LambdaForCritical(target, n, dMin)
		if math.IsNaN(nz.Lambda) {
			return nil, fmt.Errorf("taskalloc: cannot place γ* at %v", target)
		}
	}
	var model noise.Model
	switch nz.Kind {
	case NoiseSigmoid:
		model = noise.SigmoidModel{Lambda: nz.Lambda}
	case NoiseAdversarial:
		if nz.GammaAd <= 0 {
			return nil, errors.New("taskalloc: adversarial noise needs GammaAd > 0")
		}
		strat, err := greyStrategy(nz.GreyStrategy)
		if err != nil {
			return nil, err
		}
		model = noise.AdversarialModel{GammaAd: nz.GammaAd, Strategy: strat}
	case NoisePerfect:
		model = noise.PerfectModel{}
	default:
		return nil, fmt.Errorf("taskalloc: unknown noise kind %d", nz.Kind)
	}
	if nz.CorrelatedFlipProb > 0 {
		model = noise.CorrelatedModel{Base: model, FlipProb: nz.CorrelatedFlipProb, Seed: seed}
	}
	return model, nil
}

func greyStrategy(name string) (noise.GreyStrategy, error) {
	switch name {
	case "", "inverted":
		return noise.Inverted{}, nil
	case "truthful":
		return noise.Truthful{}, nil
	case "alternating":
		return noise.Alternating{}, nil
	case "always-lack":
		return noise.AlwaysLack{}, nil
	case "always-overload":
		return noise.AlwaysOverload{}, nil
	case "random":
		return noise.NewRandomGrey(), nil
	default:
		return nil, fmt.Errorf("taskalloc: unknown grey strategy %q", name)
	}
}

// Run advances the simulation by rounds rounds, applying any scheduled
// SizeChanges at their rounds (via scenario.Timeline.Drive); obs (if
// non-nil) is invoked after each round, after the built-in metrics
// recorder.
func (s *Simulation) Run(rounds int, obs Observer) {
	inner := func(t uint64, loads []int, dem demand.Vector) {
		s.rec.Observe(t, loads, dem)
		if obs != nil {
			obs(t, loads, dem)
		}
	}
	if len(s.timeline.Resizes) == 0 {
		s.runChunk(rounds, inner)
		return
	}
	s.timeline.Drive(simRunner{s: s, inner: inner}, rounds, nil)
}

// simRunner adapts Simulation to scenario.Runner so Run reuses
// Timeline.Drive's event chunking instead of duplicating it. The
// metrics/observer fan-out travels in inner; Drive's own observer
// parameter stays nil.
type simRunner struct {
	s     *Simulation
	inner func(uint64, []int, demand.Vector)
}

func (r simRunner) Run(rounds int, _ colony.Observer) { r.s.runChunk(rounds, r.inner) }
func (r simRunner) Round() uint64                     { return r.s.Round() }
func (r simRunner) Resize(m int)                      { r.s.applyResize(m) }

func (s *Simulation) runChunk(rounds int, inner func(uint64, []int, demand.Vector)) {
	switch {
	case s.mfEngine != nil:
		s.mfEngine.Run(rounds, meanfield.Observer(inner))
	case s.seqEngine != nil:
		s.seqEngine.Run(rounds, inner)
	default:
		s.engine.Run(rounds, inner)
	}
}

// Resize changes the active colony size to m in [1, Ants] from the next
// round onward: shrinking kills ants (they stop being stepped and their
// tasks are released immediately), growing hatches them back idle with
// cleared memory — the Section 6 perturbation the paper's algorithms
// self-stabilize against. The mean-field engine kills a uniform random
// subset of its cohorts and realizes the change at the next phase
// boundary (at most one round later).
func (s *Simulation) Resize(m int) error {
	if m < 1 || m > s.cfg.Ants {
		return fmt.Errorf("taskalloc: Resize to %d outside [1, %d]", m, s.cfg.Ants)
	}
	s.applyResize(m)
	return nil
}

func (s *Simulation) applyResize(m int) {
	switch {
	case s.mfEngine != nil:
		s.mfEngine.Resize(m)
	case s.seqEngine != nil:
		s.seqEngine.Resize(m)
	default:
		s.engine.Resize(m)
	}
}

// Close releases the synchronous engine's persistent worker pool
// immediately. Optional — abandoned simulations release it through a
// runtime cleanup — and idempotent; Run must not be called after Close.
func (s *Simulation) Close() {
	if s.engine != nil {
		s.engine.Close()
	}
}

// Active returns the number of active (living) ants; it differs from
// Config.Ants only after a Resize or SizeChange.
func (s *Simulation) Active() int {
	switch {
	case s.mfEngine != nil:
		return s.mfEngine.Active()
	case s.seqEngine != nil:
		return s.seqEngine.Active()
	default:
		return s.engine.Active()
	}
}

// Round returns the last completed round.
func (s *Simulation) Round() uint64 {
	switch {
	case s.mfEngine != nil:
		return s.mfEngine.Round()
	case s.seqEngine != nil:
		return s.seqEngine.Round()
	default:
		return s.engine.Round()
	}
}

// Loads returns a copy of the current per-task loads.
func (s *Simulation) Loads() []int {
	var src []int
	switch {
	case s.mfEngine != nil:
		src = s.mfEngine.Loads()
	case s.seqEngine != nil:
		src = s.seqEngine.Loads()
	default:
		src = s.engine.Loads()
	}
	out := make([]int, len(src))
	copy(out, src)
	return out
}

// Switches returns the cumulative number of task/idle changes. The
// mean-field engine aggregates them cohort-wise (exact distribution,
// no individual ants).
func (s *Simulation) Switches() uint64 {
	switch {
	case s.mfEngine != nil:
		return s.mfEngine.Switches()
	case s.seqEngine != nil:
		return s.seqEngine.Switches()
	default:
		return s.engine.Switches()
	}
}

// inForceRound is the round whose regime reporting reflects: the last
// completed round, or round 1 before any stepping.
func (s *Simulation) inForceRound() uint64 {
	if r := s.Round(); r > 0 {
		return r
	}
	return 1
}

// demandsInForce returns the demand vector in force (owned by the
// schedule; callers must not mutate it).
func (s *Simulation) demandsInForce() demand.Vector {
	return s.sched.At(s.inForceRound())
}

// modelInForce resolves the noise regime in force (after any scheduled
// NoiseChanges).
func (s *Simulation) modelInForce() noise.Model {
	if sw, ok := s.model.(noise.Switcher); ok {
		return sw.ModelAt(s.inForceRound())
	}
	return s.model
}

// Demands returns a copy of the demand vector in force.
func (s *Simulation) Demands() []int {
	return append([]int(nil), s.demandsInForce()...)
}

// CriticalValue returns γ* of the noise regime in force, evaluated at
// the demand vector in force and the active colony size — after a
// demand change, noise switch, or resize it tracks the new regime
// rather than the construction-time one.
func (s *Simulation) CriticalValue() float64 {
	return s.modelInForce().CriticalValue(s.Active(), s.demandsInForce().Min())
}

// Report summarizes a simulation in the paper's terms.
type Report struct {
	// Rounds is the number of simulated rounds.
	Rounds uint64
	// TotalRegret is R(t) = Σ_τ Σ_j |d(j) − W(j)_τ|.
	TotalRegret int64
	// AvgRegret is the per-round regret averaged after BurnIn.
	AvgRegret float64
	// StdRegret is its standard deviation.
	StdRegret float64
	// PeakRegret is max_t r(t).
	PeakRegret int
	// Closeness is AvgRegret / (γ*·Σd): the paper's c in "c-close",
	// computed with the γ* and Σd in force (they track demand changes,
	// noise switches, and resizes).
	Closeness float64
	// GammaStar is the in-force critical value γ* used for Closeness.
	GammaStar float64
	// MaxAbsDeficit is the per-task maximum |Δ(j)| observed.
	MaxAbsDeficit []int
	// ZeroCrossings counts deficit sign flips per task (oscillations).
	ZeroCrossings []int64
	// Switches is the cumulative assignment-change count.
	Switches uint64
}

// String renders a one-paragraph summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"rounds=%d totalRegret=%d avgRegret=%.4g±%.3g peak=%d closeness=%.4g (γ*=%.4g) switches=%d",
		r.Rounds, r.TotalRegret, r.AvgRegret, r.StdRegret, r.PeakRegret,
		r.Closeness, r.GammaStar, r.Switches)
}

// Report returns the metrics accumulated so far. Closeness and
// GammaStar are evaluated against the demand vector and noise regime in
// force, not the construction-time ones.
func (s *Simulation) Report() Report {
	gammaStar := s.CriticalValue()
	return Report{
		Rounds:        s.rec.Rounds(),
		TotalRegret:   s.rec.TotalRegret(),
		AvgRegret:     s.rec.AvgRegret(),
		StdRegret:     s.rec.StdRegret(),
		PeakRegret:    s.rec.PeakRegret(),
		Closeness:     s.rec.Closeness(gammaStar, s.demandsInForce().Sum()),
		GammaStar:     gammaStar,
		MaxAbsDeficit: s.rec.MaxAbsDeficit(),
		ZeroCrossings: append([]int64(nil), s.rec.ZeroCrossings()...),
		Switches:      s.Switches(),
	}
}

// RegretBand returns the Theorem 3.1 per-round regret band 5γΣd + 3 for
// the demand vector in force.
func (s *Simulation) RegretBand() float64 {
	return 5*s.cfg.Gamma*float64(s.demandsInForce().Sum()) + 3
}
