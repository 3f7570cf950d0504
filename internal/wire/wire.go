// Package wire is the versioned wire format of the simulation service:
// a canonical JSON encoding of the full scenario configuration space —
// algorithm, colony size, γ, seeds, every demand schedule family
// (static, step, sinusoid, burst, random walk, Markov-modulated, trace
// replay, frozen snapshots), and the Timeline events (colony resizes,
// noise-regime switches) — plus the job-grid envelope the service and
// cmd/sweep exchange.
//
// The codec is bidirectional and lossless over the supported space:
// FromConfig/ToConfig map between taskalloc.Config and the wire form,
// and FromJobs/ToJobs do the same for whole sweeprun grids, so a grid
// serialized by `sweep -dump-jobs` replays byte-identically through
// `sweep -jobs` or over POST /v1/sweeps. Every decode runs through one
// decoder, which builds each distinct frozen snapshot once and charges
// it to the frozen-horizon budget. Admission (Admit,
// BisectRequest.Validate, ParseQuery) decodes every config, so every
// backend and the grid coordinator reject the same documents alike.
//
// Hashing: JobHash and SweepHash digest the *canonical* form — the
// decoded struct re-encoded with configuration defaults applied — so
// the hash is insensitive to JSON key order and whitespace but
// sensitive to every semantic field (seed, γ, schedule parameters,
// events, metadata, rounds). The service's caches key on the semantic
// hashes instead (semantic.go), which also see through equivalent
// schedule spellings; the syntactic ones only count a sweep cache's
// alias hits and give a bisect cell its reported JobHash. Shards = 0
// (resolve to GOMAXPROCS at run time) is deliberately NOT canonicalized
// away: submitters who need cross-host reproducibility must pin Shards
// explicitly.
//
// Runtime-only fields (Config.Pool, sweeprun.Job.Observe) are outside
// the wire format; executors re-inject them after decoding.
package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"

	"taskalloc"
	"taskalloc/internal/agent"
	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
	"taskalloc/internal/sweeprun"
)

// V1 is the current wire-format version tag. Decoders reject anything
// else; additive evolution (new optional fields) stays within v1, and
// an incompatible change must mint v2 and keep decoding v1.
const V1 = "taskalloc/v1"

// MaxFrozenHorizon bounds the horizon a frozen-schedule decode will
// materialize (the snapshot costs O(horizon) pointers), so a hostile or
// corrupt document cannot make the decoder allocate without bound.
const MaxFrozenHorizon = 1 << 22

// MaxBodyBytes caps a request document's size (the decoders
// materialize the whole document), a backend's and the grid
// coordinator's alike.
const MaxBodyBytes = 64 << 20

// The admission bounds: what one request document may buy before
// anything is keyed or run (a running sweep is not cancelled when its
// client goes away, so admission is where compute is bounded). They are
// constants of the wire format, so every backend and the grid
// coordinator reject the same documents with the same status and
// message (Admit, BisectRequest.Validate).
const (
	// MaxJobs bounds a sweep's grid size.
	MaxJobs = 10_000
	// MaxCellRounds bounds one cell's horizon.
	MaxCellRounds = 10_000_000
	// MaxCellAnts bounds one cell's colony size (engine state is
	// O(ants) and per-round work O(ants·k)).
	MaxCellAnts = 10_000_000
	// MaxBisectEvals bounds a bisect's evaluated γ cells, and is the
	// budget of one that leaves max_evals 0.
	MaxBisectEvals = 128
)

// ErrAdmission is the error every admission rejection wraps; its
// message names the bound, and DecodeStatus gives its status.
var ErrAdmission = errors.New("wire: request past an admission bound")

// admissionError is one admission rejection and the status it gets.
type admissionError struct {
	status int
	msg    string
}

func (e *admissionError) Error() string { return e.msg }
func (e *admissionError) Unwrap() error { return ErrAdmission }

// reject builds an admission rejection answered with status.
func reject(status int, format string, args ...any) error {
	return &admissionError{status: status, msg: fmt.Sprintf(format, args...)}
}

// DecodeStatus is the HTTP status a backend and the grid coordinator
// both answer a request document that failed to decode or to be
// admitted with: 413 when it ran past the body cap
// (http.MaxBytesReader), an admission rejection's own status (413 for
// the grid size and the frozen-horizon budget, 400 for the other
// bounds), else 400.
func DecodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	var rejected *admissionError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &rejected):
		return rejected.status
	}
	return http.StatusBadRequest
}

// Admit checks a sweep's grid against the admission bounds: its job
// count, each cell's rounds and ants, and that every config decodes,
// through ToJobs's decoder (the jobs are discarded), so the frozen
// budget counts what a decode builds. The error wraps ErrAdmission and
// names the job; an undecodable config gets ToJobs's message and 400.
func Admit(jobs []Job) error {
	if len(jobs) > MaxJobs {
		return reject(http.StatusRequestEntityTooLarge, "grid has %d jobs, limit %d", len(jobs), MaxJobs)
	}
	var d decoder
	for i, j := range jobs {
		if err := cellBounds(i, j); err != nil {
			return err
		}
		if _, err := d.job(i, j); err != nil {
			return undecodable(err)
		}
	}
	return nil
}

// cellBounds checks job i's rounds and ants.
func cellBounds(i int, j Job) error {
	if j.Rounds < 0 || j.Rounds > MaxCellRounds {
		return reject(http.StatusBadRequest, "jobs[%d]: rounds %d outside [0, %d]", i, j.Rounds, MaxCellRounds)
	}
	if j.Config.Ants > MaxCellAnts {
		return reject(http.StatusBadRequest, "jobs[%d]: ants %d over limit %d", i, j.Config.Ants, MaxCellAnts)
	}
	return nil
}

// undecodable makes a decode error an admission rejection (400); the
// budget's rejection, or nil, passes unchanged.
func undecodable(err error) error {
	if err == nil || errors.Is(err, ErrAdmission) {
		return err
	}
	return reject(http.StatusBadRequest, "%v", err)
}

// A decoder turns wire configs into runnable ones, building each
// distinct frozen encoding (frozenKey) once, at any depth, for every
// config it decodes to share (a Frozen is immutable). A snapshot costs
// O(horizon), so it charges the horizon as it builds one: the sum may
// not pass MaxFrozenHorizon. The zero decoder is ready to use.
type decoder struct {
	frozen map[string]demand.Schedule
	total  uint64 // the built snapshots' horizons
	at     int    // the job a budget rejection names
}

// job decodes job i of a grid. An error names the job, but for the
// budget's rejection, which names it itself.
func (d *decoder) job(i int, j Job) (sweeprun.Job, error) {
	d.at = i
	cfg, err := d.config(j.Config)
	if errors.Is(err, ErrAdmission) {
		return sweeprun.Job{}, err
	}
	if err != nil {
		return sweeprun.Job{}, fmt.Errorf("wire: jobs[%d]: %w", i, err)
	}
	return sweeprun.Job{Meta: append([]string(nil), j.Meta...), Config: cfg, Rounds: j.Rounds}, nil
}

// Sweep is the job-grid envelope: what POST /v1/sweeps accepts and
// `sweep -dump-jobs` emits.
type Sweep struct {
	Version string `json:"version"`
	Jobs    []Job  `json:"jobs"`
}

// Job is one grid cell: a fully-resolved simulation plus the opaque
// caller metadata echoed on its result row.
type Job struct {
	// Meta is echoed untouched (cmd/sweep uses param/value/scenario/seed).
	Meta []string `json:"meta,omitempty"`
	// Rounds is the simulation horizon.
	Rounds int `json:"rounds"`
	// Trajectory asks the executor to record and return the full
	// per-round trajectory CSV (the golden-corpus format) on the result.
	Trajectory bool `json:"trajectory,omitempty"`
	// Config is the wire form of the simulation configuration.
	Config Config `json:"config"`
}

// Config mirrors taskalloc.Config field by field, with interfaces
// replaced by tagged encodings (Schedule) and enums by strings.
type Config struct {
	Ants             int            `json:"ants"`
	Demands          []int          `json:"demands,omitempty"`
	Algorithm        string         `json:"algorithm,omitempty"` // "" = "ant"
	Gamma            float64        `json:"gamma,omitempty"`     // 0 = 1/16
	Epsilon          float64        `json:"epsilon,omitempty"`
	Noise            *Noise         `json:"noise,omitempty"` // nil = sigmoid at γ/2
	Init             string         `json:"init,omitempty"`  // "" = "idle"
	DemandChanges    []DemandChange `json:"demand_changes,omitempty"`
	Schedule         *Schedule      `json:"schedule,omitempty"` // Config.Demand
	SizeChanges      []SizeChange   `json:"size_changes,omitempty"`
	NoiseChanges     []NoiseChange  `json:"noise_changes,omitempty"`
	Sequential       bool           `json:"sequential,omitempty"`
	MeanField        bool           `json:"mean_field,omitempty"`
	Seed             uint64         `json:"seed,omitempty"` // 0 = 1
	Shards           int            `json:"shards,omitempty"`
	BurnIn           uint64         `json:"burn_in,omitempty"`
	CheckAssumptions bool           `json:"check_assumptions,omitempty"`
}

// Noise is the wire form of taskalloc.Noise.
type Noise struct {
	Kind               string  `json:"kind"` // sigmoid | adversarial | perfect
	Lambda             float64 `json:"lambda,omitempty"`
	GammaStar          float64 `json:"gamma_star,omitempty"`
	GammaAd            float64 `json:"gamma_ad,omitempty"`
	GreyStrategy       string  `json:"grey_strategy,omitempty"`
	CorrelatedFlipProb float64 `json:"correlated_flip_prob,omitempty"`
}

// DemandChange is the wire form of taskalloc.DemandChange.
type DemandChange struct {
	At      uint64 `json:"at"`
	Demands []int  `json:"demands"`
}

// SizeChange is the wire form of taskalloc.SizeChange (a Timeline
// Resize event: ants dying or hatching at a round).
type SizeChange struct {
	At uint64 `json:"at"`
	To int    `json:"to"`
}

// NoiseChange is the wire form of taskalloc.NoiseChange (a Timeline
// NoiseSwitch event: the feedback regime in force from a round).
type NoiseChange struct {
	At    uint64 `json:"at"`
	Noise Noise  `json:"noise"`
}

// Schedule is the tagged union over the demand schedule families. Kind
// selects the family; the other fields are per-family parameters (the
// unused ones stay empty).
type Schedule struct {
	Kind string `json:"kind"`
	// Base is the anchor vector of static, step (initial), sinusoid,
	// burst, and randomwalk.
	Base []int `json:"base,omitempty"`
	// When/Vectors are the change points of step, trace, and frozen.
	When    []uint64 `json:"when,omitempty"`
	Vectors [][]int  `json:"vectors,omitempty"`
	// Horizon is the last pre-sampled round of a frozen snapshot.
	Horizon uint64 `json:"horizon,omitempty"`
	// Sinusoid.
	Amp    []float64 `json:"amp,omitempty"`
	Period float64   `json:"period,omitempty"`
	Phase  []float64 `json:"phase,omitempty"`
	// Burst.
	Peak  []int  `json:"peak,omitempty"`
	Start uint64 `json:"start,omitempty"`
	Every uint64 `json:"every,omitempty"`
	Len   uint64 `json:"len,omitempty"`
	// RandomWalk (Every is shared with Burst).
	Step int   `json:"step,omitempty"`
	Min  []int `json:"min,omitempty"`
	Max  []int `json:"max,omitempty"`
	// Seed drives the generative families (randomwalk, markov).
	Seed uint64 `json:"seed,omitempty"`
	// MarkovModulated.
	Regimes     [][]int     `json:"regimes,omitempty"`
	P           [][]float64 `json:"p,omitempty"`
	Dwell       uint64      `json:"dwell,omitempty"`
	StartRegime int         `json:"start_regime,omitempty"`
	// Scenario algebra: Parts are the operands of compose (spliced at
	// When, which is shared with step/trace) and superpose; Inner is the
	// operand of modulate and stablenoise.
	Parts []Schedule `json:"parts,omitempty"`
	Inner *Schedule  `json:"inner,omitempty"`
	// Scale is modulate's per-task factor vector.
	Scale []float64 `json:"scale,omitempty"`
	// Alpha and Sigma are stablenoise's stability exponent and noise
	// scale (Every and Seed are shared with the other generative
	// families).
	Alpha float64 `json:"alpha,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// MaxScheduleDepth bounds the nesting of algebra operators a decoder
// will materialize, so a hostile document cannot recurse without bound.
const MaxScheduleDepth = 16

// EncodeSweep writes s as JSON. An empty Version is stamped V1.
func EncodeSweep(w io.Writer, s Sweep) error {
	if s.Version == "" {
		s.Version = V1
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// MarshalSweep renders s as compact JSON, the body one program sends
// another (EncodeSweep indents for people). An empty Version is stamped
// V1.
func MarshalSweep(s Sweep) ([]byte, error) {
	if s.Version == "" {
		s.Version = V1
	}
	return json.Marshal(s)
}

// DecodeSweep reads one JSON sweep document. Unknown fields and version
// mismatches are errors: the format is versioned, not duck-typed.
func DecodeSweep(r io.Reader) (Sweep, error) {
	var s Sweep
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Sweep{}, fmt.Errorf("wire: decode sweep: %w", err)
	}
	if s.Version != V1 {
		return Sweep{}, fmt.Errorf("wire: unsupported version %q (want %q)", s.Version, V1)
	}
	return s, nil
}

// --- Config <-> taskalloc.Config ---

var initNames = map[taskalloc.InitKind]string{
	taskalloc.InitIdle:    "idle",
	taskalloc.InitUniform: "uniform",
	taskalloc.InitFlood:   "flood",
	taskalloc.InitExact:   "exact",
}

var noiseKindNames = map[taskalloc.NoiseKind]string{
	taskalloc.NoiseSigmoid:     "sigmoid",
	taskalloc.NoiseAdversarial: "adversarial",
	taskalloc.NoisePerfect:     "perfect",
}

func invert[K comparable, V comparable](m map[K]V) map[V]K {
	out := make(map[V]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

var (
	initKinds  = invert(initNames)
	noiseKinds = invert(noiseKindNames)
)

// FromConfig encodes a taskalloc.Config. Config.Pool (runtime-only) is
// dropped; every other field round-trips.
func FromConfig(cfg taskalloc.Config) (Config, error) {
	alg := cfg.Algorithm.String()
	if _, err := taskalloc.ParseAlgorithm(alg); err != nil {
		return Config{}, fmt.Errorf("wire: unknown algorithm %d", int(cfg.Algorithm))
	}
	ini, ok := initNames[cfg.Init]
	if !ok {
		return Config{}, fmt.Errorf("wire: unknown init kind %d", int(cfg.Init))
	}
	out := Config{
		Ants:             cfg.Ants,
		Demands:          append([]int(nil), cfg.Demands...),
		Gamma:            cfg.Gamma,
		Epsilon:          cfg.Epsilon,
		Sequential:       cfg.Sequential,
		MeanField:        cfg.MeanField,
		Seed:             cfg.Seed,
		Shards:           cfg.Shards,
		BurnIn:           cfg.BurnIn,
		CheckAssumptions: cfg.CheckAssumptions,
	}
	if alg != "ant" {
		out.Algorithm = alg
	}
	if ini != "idle" {
		out.Init = ini
	}
	if cfg.Noise != (taskalloc.Noise{}) {
		nz, err := fromNoise(cfg.Noise)
		if err != nil {
			return Config{}, err
		}
		out.Noise = &nz
	}
	for _, c := range cfg.DemandChanges {
		out.DemandChanges = append(out.DemandChanges,
			DemandChange{At: c.At, Demands: append([]int(nil), c.Demands...)})
	}
	for _, c := range cfg.SizeChanges {
		out.SizeChanges = append(out.SizeChanges, SizeChange{At: c.At, To: c.To})
	}
	for _, c := range cfg.NoiseChanges {
		nz, err := fromNoise(c.Noise)
		if err != nil {
			return Config{}, fmt.Errorf("wire: noise_changes[%d]: %w", len(out.NoiseChanges), err)
		}
		out.NoiseChanges = append(out.NoiseChanges, NoiseChange{At: c.At, Noise: nz})
	}
	if cfg.Demand != nil {
		sched, err := FromSchedule(cfg.Demand)
		if err != nil {
			return Config{}, err
		}
		out.Schedule = &sched
	}
	return out, nil
}

// ToConfig decodes into a taskalloc.Config, rebuilding the demand
// schedule through its validating constructor (its distinct frozen
// snapshots may sum to at most MaxFrozenHorizon, as in ToJobs).
func (c Config) ToConfig() (taskalloc.Config, error) {
	return new(decoder).config(c)
}

// config decodes c. A budget rejection comes back bare, whatever
// schedule nests the snapshot it was charged for.
func (d *decoder) config(c Config) (taskalloc.Config, error) {
	out := taskalloc.Config{
		Ants:             c.Ants,
		Demands:          append([]int(nil), c.Demands...),
		Gamma:            c.Gamma,
		Epsilon:          c.Epsilon,
		Sequential:       c.Sequential,
		MeanField:        c.MeanField,
		Seed:             c.Seed,
		Shards:           c.Shards,
		BurnIn:           c.BurnIn,
		CheckAssumptions: c.CheckAssumptions,
	}
	alg, err := taskalloc.ParseAlgorithm(orDefault(c.Algorithm, "ant"))
	if err != nil {
		return taskalloc.Config{}, fmt.Errorf("wire: %w", err)
	}
	out.Algorithm = alg
	ini, ok := initKinds[orDefault(c.Init, "idle")]
	if !ok {
		return taskalloc.Config{}, fmt.Errorf("wire: unknown init kind %q", c.Init)
	}
	out.Init = ini
	if c.Noise != nil {
		nz, err := c.Noise.toNoise()
		if err != nil {
			return taskalloc.Config{}, err
		}
		out.Noise = nz
	}
	for _, ch := range c.DemandChanges {
		out.DemandChanges = append(out.DemandChanges,
			taskalloc.DemandChange{At: ch.At, Demands: append([]int(nil), ch.Demands...)})
	}
	for _, ch := range c.SizeChanges {
		out.SizeChanges = append(out.SizeChanges, taskalloc.SizeChange{At: ch.At, To: ch.To})
	}
	for i, ch := range c.NoiseChanges {
		nz, err := ch.Noise.toNoise()
		if err != nil {
			return taskalloc.Config{}, fmt.Errorf("wire: noise_changes[%d]: %w", i, err)
		}
		out.NoiseChanges = append(out.NoiseChanges, taskalloc.NoiseChange{At: ch.At, Noise: nz})
	}
	if c.Schedule != nil {
		sched, err := d.schedule(*c.Schedule, 0)
		if rejected := (*admissionError)(nil); errors.As(err, &rejected) {
			err = rejected
		}
		if err != nil {
			return taskalloc.Config{}, err
		}
		out.Demand = sched
	}
	return out, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func fromNoise(nz taskalloc.Noise) (Noise, error) {
	kind, ok := noiseKindNames[nz.Kind]
	if !ok {
		return Noise{}, fmt.Errorf("wire: unknown noise kind %d", int(nz.Kind))
	}
	return Noise{
		Kind:               kind,
		Lambda:             nz.Lambda,
		GammaStar:          nz.GammaStar,
		GammaAd:            nz.GammaAd,
		GreyStrategy:       nz.GreyStrategy,
		CorrelatedFlipProb: nz.CorrelatedFlipProb,
	}, nil
}

func (n Noise) toNoise() (taskalloc.Noise, error) {
	kind, ok := noiseKinds[orDefault(n.Kind, "sigmoid")]
	if !ok {
		return taskalloc.Noise{}, fmt.Errorf("wire: unknown noise kind %q", n.Kind)
	}
	return taskalloc.Noise{
		Kind:               kind,
		Lambda:             n.Lambda,
		GammaStar:          n.GammaStar,
		GammaAd:            n.GammaAd,
		GreyStrategy:       n.GreyStrategy,
		CorrelatedFlipProb: n.CorrelatedFlipProb,
	}, nil
}

// --- Schedule <-> demand.Schedule ---

// FromSchedule encodes any schedule the codec supports: demand.Static,
// *demand.Step, the five generative scenario families, and frozen
// snapshots.
func FromSchedule(s demand.Schedule) (Schedule, error) {
	switch v := s.(type) {
	case demand.Static:
		return Schedule{Kind: "static", Base: append([]int(nil), v.V...)}, nil
	case *demand.Static:
		return Schedule{Kind: "static", Base: append([]int(nil), v.V...)}, nil
	case *demand.Step:
		return Schedule{
			Kind:    "step",
			Base:    append([]int(nil), v.Initial...),
			When:    append([]uint64(nil), v.When...),
			Vectors: fromVectors(v.Changes),
		}, nil
	case *scenario.Sinusoid:
		return Schedule{
			Kind:   "sinusoid",
			Base:   append([]int(nil), v.Base...),
			Amp:    append([]float64(nil), v.Amp...),
			Period: v.Period,
			Phase:  append([]float64(nil), v.Phase...),
		}, nil
	case *scenario.Burst:
		return Schedule{
			Kind:  "burst",
			Base:  append([]int(nil), v.Base...),
			Peak:  append([]int(nil), v.Peak...),
			Start: v.Start,
			Every: v.Every,
			Len:   v.Len,
		}, nil
	case *scenario.RandomWalk:
		return Schedule{
			Kind:  "randomwalk",
			Base:  append([]int(nil), v.Base...),
			Step:  v.Step,
			Every: v.Every,
			Min:   append([]int(nil), v.Min...),
			Max:   append([]int(nil), v.Max...),
			Seed:  v.Seed,
		}, nil
	case *scenario.MarkovModulated:
		return Schedule{
			Kind:        "markov",
			Regimes:     fromVectors(v.Regimes),
			P:           clone2D(v.P),
			Dwell:       v.Dwell,
			StartRegime: v.Start,
			Seed:        v.Seed,
		}, nil
	case *scenario.Trace:
		when, vecs := v.Points()
		return Schedule{Kind: "trace", When: when, Vectors: fromVectors(vecs)}, nil
	case *scenario.Frozen:
		if v.Horizon() > MaxFrozenHorizon {
			// Refuse at encode time what every decoder will refuse, so
			// a dump/replay round trip fails fast on the dumping side.
			return Schedule{}, fmt.Errorf("wire: frozen horizon %d exceeds limit %d (freeze over a shorter horizon, or encode the generative family instead)",
				v.Horizon(), MaxFrozenHorizon)
		}
		when, vecs := v.Points()
		return Schedule{
			Kind:    "frozen",
			When:    when,
			Vectors: fromVectors(vecs),
			Horizon: v.Horizon(),
		}, nil
	case *scenario.Compose:
		out := Schedule{Kind: "compose", When: append([]uint64(nil), v.When...)}
		for i, p := range v.Parts {
			enc, err := FromSchedule(p)
			if err != nil {
				return Schedule{}, fmt.Errorf("wire: compose part %d: %w", i, err)
			}
			out.Parts = append(out.Parts, enc)
		}
		return out, nil
	case *scenario.Superpose:
		out := Schedule{Kind: "superpose"}
		for i, p := range v.Parts {
			enc, err := FromSchedule(p)
			if err != nil {
				return Schedule{}, fmt.Errorf("wire: superpose part %d: %w", i, err)
			}
			out.Parts = append(out.Parts, enc)
		}
		return out, nil
	case *scenario.Modulate:
		inner, err := FromSchedule(v.Inner)
		if err != nil {
			return Schedule{}, fmt.Errorf("wire: modulate inner: %w", err)
		}
		return Schedule{
			Kind:  "modulate",
			Inner: &inner,
			Scale: append([]float64(nil), v.Scale...),
		}, nil
	case *scenario.StableNoise:
		inner, err := FromSchedule(v.Inner)
		if err != nil {
			return Schedule{}, fmt.Errorf("wire: stablenoise inner: %w", err)
		}
		return Schedule{
			Kind:  "stablenoise",
			Inner: &inner,
			Alpha: v.Alpha,
			Sigma: v.Sigma,
			Every: v.Every,
			Seed:  v.Seed,
		}, nil
	default:
		return Schedule{}, fmt.Errorf("wire: unsupported schedule type %T", s)
	}
}

// ToSchedule decodes into a live demand.Schedule through the family's
// validating constructor. Algebra operators decode recursively, bounded
// by MaxScheduleDepth, and the distinct frozen snapshots, nested ones
// included, may sum to at most MaxFrozenHorizon.
func (s Schedule) ToSchedule() (demand.Schedule, error) {
	return new(decoder).schedule(s, 0)
}

func (d *decoder) schedule(s Schedule, depth int) (demand.Schedule, error) {
	if depth > MaxScheduleDepth {
		return nil, fmt.Errorf("wire: schedule nesting exceeds depth %d", MaxScheduleDepth)
	}
	switch s.Kind {
	case "static":
		v := demand.Vector(append([]int(nil), s.Base...))
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("wire: static schedule: %w", err)
		}
		return demand.Static{V: v}, nil
	case "step":
		return demand.NewStep(append([]int(nil), s.Base...),
			append([]uint64(nil), s.When...), toVectors(s.Vectors))
	case "sinusoid":
		return scenario.NewSinusoid(append([]int(nil), s.Base...),
			append([]float64(nil), s.Amp...), s.Period, append([]float64(nil), s.Phase...))
	case "burst":
		return scenario.NewBurst(append([]int(nil), s.Base...),
			append([]int(nil), s.Peak...), s.Start, s.Every, s.Len)
	case "randomwalk":
		return scenario.NewRandomWalk(append([]int(nil), s.Base...),
			s.Step, s.Every, append([]int(nil), s.Min...), append([]int(nil), s.Max...), s.Seed)
	case "markov":
		return scenario.NewMarkovModulated(toVectors(s.Regimes), clone2D(s.P),
			s.Dwell, s.StartRegime, s.Seed)
	case "trace":
		return scenario.NewTrace(append([]uint64(nil), s.When...), toVectors(s.Vectors))
	case "frozen":
		key := frozenKey(&s)
		if fz := d.frozen[key]; fz != nil {
			return fz, nil
		}
		if d.total += min(s.Horizon, MaxFrozenHorizon+1); d.total > MaxFrozenHorizon { // no wrap-around
			return nil, reject(http.StatusRequestEntityTooLarge,
				"grid's distinct frozen horizons sum past %d (job %d)", MaxFrozenHorizon, d.at)
		}
		tr, err := scenario.NewTrace(append([]uint64(nil), s.When...), toVectors(s.Vectors))
		if err != nil {
			return nil, err
		}
		if len(s.When) > 0 && s.When[len(s.When)-1] > s.Horizon {
			return nil, fmt.Errorf("wire: frozen change at %d beyond horizon %d",
				s.When[len(s.When)-1], s.Horizon)
		}
		// Re-sampling the piecewise-constant trace reproduces the
		// original snapshot exactly.
		fz, err := scenario.Freeze(tr, s.Horizon)
		if err != nil {
			return nil, err
		}
		if d.frozen == nil {
			d.frozen = map[string]demand.Schedule{}
		}
		d.frozen[key] = fz
		return fz, nil
	case "compose":
		parts, err := d.parts(s, depth)
		if err != nil {
			return nil, fmt.Errorf("wire: compose: %w", err)
		}
		return scenario.NewCompose(parts, append([]uint64(nil), s.When...))
	case "superpose":
		parts, err := d.parts(s, depth)
		if err != nil {
			return nil, fmt.Errorf("wire: superpose: %w", err)
		}
		return scenario.NewSuperpose(parts)
	case "modulate":
		inner, err := d.inner(s, depth)
		if err != nil {
			return nil, fmt.Errorf("wire: modulate: %w", err)
		}
		return scenario.NewModulate(inner, append([]float64(nil), s.Scale...))
	case "stablenoise":
		inner, err := d.inner(s, depth)
		if err != nil {
			return nil, fmt.Errorf("wire: stablenoise: %w", err)
		}
		return scenario.NewStableNoise(inner, s.Alpha, s.Sigma, s.Every, s.Seed)
	case "":
		return nil, errors.New("wire: schedule missing kind")
	default:
		return nil, fmt.Errorf("wire: unknown schedule kind %q", s.Kind)
	}
}

func (d *decoder) parts(s Schedule, depth int) ([]demand.Schedule, error) {
	if len(s.Parts) == 0 {
		return nil, errors.New("needs parts")
	}
	parts := make([]demand.Schedule, len(s.Parts))
	for i, p := range s.Parts {
		dec, err := d.schedule(p, depth+1)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		parts[i] = dec
	}
	return parts, nil
}

func (d *decoder) inner(s Schedule, depth int) (demand.Schedule, error) {
	if s.Inner == nil {
		return nil, errors.New("needs inner")
	}
	return d.schedule(*s.Inner, depth+1)
}

func fromVectors(vs []demand.Vector) [][]int {
	out := make([][]int, len(vs))
	for i, v := range vs {
		out[i] = append([]int(nil), v...)
	}
	return out
}

func toVectors(vs [][]int) []demand.Vector {
	out := make([]demand.Vector, len(vs))
	for i, v := range vs {
		out[i] = demand.Vector(append([]int(nil), v...))
	}
	return out
}

func clone2D(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// --- Job <-> sweeprun.Job ---

// FromJob encodes one grid cell. The runtime-only Observe hook is
// dropped.
func FromJob(j sweeprun.Job) (Job, error) {
	cfg, err := FromConfig(j.Config)
	if err != nil {
		return Job{}, err
	}
	return Job{
		Meta:   append([]string(nil), j.Meta...),
		Rounds: j.Rounds,
		Config: cfg,
	}, nil
}

// FromJobs encodes a whole grid as a V1 sweep. A schedule instance
// shared by many jobs (the cmd/sweep pattern: one frozen snapshot for
// the whole grid) is serialized once and its encoding reused, so the
// O(changes) Points walk is not repeated per cell. The JSON document
// still carries one copy per job — the v1 envelope has no cross-job
// references; decoders rebuild per-job instances, which is what makes
// the decoded jobs safe to run concurrently.
func FromJobs(jobs []sweeprun.Job) (Sweep, error) {
	out := Sweep{Version: V1, Jobs: make([]Job, len(jobs))}
	encoded := map[demand.Schedule]*Schedule{}
	// Only pointer-typed schedules are memoizable map keys;
	// demand.Static (a value type holding a slice) is not hashable —
	// and is trivial to re-encode anyway.
	memoizable := func(s demand.Schedule) bool {
		if s == nil {
			return false
		}
		return reflect.ValueOf(s).Kind() == reflect.Pointer
	}
	for i, j := range jobs {
		var shared *Schedule
		sched := j.Config.Demand
		if memoizable(sched) {
			if shared = encoded[sched]; shared != nil {
				// Already encoded for an earlier cell: skip the
				// re-encode (Frozen.Points is O(horizon)) and reuse.
				j.Config.Demand = nil
			}
		}
		wj, err := FromJob(j)
		if err != nil {
			return Sweep{}, fmt.Errorf("wire: jobs[%d]: %w", i, err)
		}
		if shared != nil {
			wj.Config.Schedule = shared
		} else if memoizable(sched) {
			encoded[sched] = wj.Config.Schedule
		}
		out.Jobs[i] = wj
	}
	return out, nil
}

// ToJobs decodes a sweep's grid into runnable jobs (Observe left nil;
// the executor attaches trajectory recorders itself when Trajectory is
// set) through one decoder, so identical frozen encodings, at any
// depth, materialize once and every cell shares the snapshot — without
// sharing, a J-cell replay would pay J·O(horizon) memory instead of
// one snapshot — and a grid whose distinct snapshots sum past
// MaxFrozenHorizon is refused with Admit's error.
func ToJobs(s Sweep) ([]sweeprun.Job, error) {
	var d decoder
	out := make([]sweeprun.Job, len(s.Jobs))
	for i, wj := range s.Jobs {
		j, err := d.job(i, wj)
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

// frozenKey identifies a frozen schedule encoding by content. One
// decoder charges and shares a snapshot under it, so the admission
// budget counts exactly the snapshots a decode materializes; the
// semantic hash's normalization memo keys on it too.
func frozenKey(sc *Schedule) string {
	b, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("%p", sc) // unreachable: Schedule always marshals
	}
	return string(b)
}

// Tasks returns the task count the config's schedule yields (the
// trajectory recorder's column count).
func (c Config) Tasks() int {
	if c.Schedule != nil {
		return c.Schedule.tasks(0)
	}
	return len(c.Demands)
}

func (s *Schedule) tasks(depth int) int {
	if depth > MaxScheduleDepth {
		return 0
	}
	switch s.Kind {
	case "markov":
		if len(s.Regimes) > 0 {
			return len(s.Regimes[0])
		}
		return 0
	case "trace", "frozen":
		if len(s.Vectors) > 0 {
			return len(s.Vectors[0])
		}
		return 0
	case "compose", "superpose":
		if len(s.Parts) > 0 {
			return s.Parts[0].tasks(depth + 1)
		}
		return 0
	case "modulate", "stablenoise":
		if s.Inner != nil {
			return s.Inner.tasks(depth + 1)
		}
		return 0
	default:
		return len(s.Base)
	}
}

// --- Canonical hashing ---

// canonicalJob applies the configuration defaults the engine would, so
// that semantically identical submissions (Gamma 0 vs 1/16, Seed 0 vs
// 1, elided algorithm names) digest identically.
func canonicalJob(j Job) Job {
	c := j.Config
	c.Algorithm = orDefault(c.Algorithm, "ant")
	c.Init = orDefault(c.Init, "idle")
	if c.Gamma == 0 {
		c.Gamma = agent.MaxGamma
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Noise == nil {
		c.Noise = &Noise{}
	}
	nz := canonicalNoise(*c.Noise, c.Gamma)
	c.Noise = &nz
	if len(c.NoiseChanges) > 0 {
		// Clone before applying defaults: the struct copy above still
		// aliases the caller's slice backing array, and hashing must
		// never mutate its input. NoiseChanges entries resolve exactly
		// like the top-level Noise (buildNoiseModel treats them the
		// same), so they canonicalize the same.
		changes := append([]NoiseChange(nil), c.NoiseChanges...)
		for i := range changes {
			changes[i].Noise = canonicalNoise(changes[i].Noise, c.Gamma)
		}
		c.NoiseChanges = changes
	}
	j.Config = c
	return j
}

// canonicalNoise applies the defaults the engine's buildNoiseModel
// would, for a simulation whose (already-defaulted) learning rate is
// gamma.
func canonicalNoise(nz Noise, gamma float64) Noise {
	nz.Kind = orDefault(nz.Kind, "sigmoid")
	if nz.Kind == "sigmoid" && nz.Lambda == 0 && nz.GammaStar == 0 {
		nz.GammaStar = gamma / 2
	}
	if nz.Kind == "adversarial" {
		nz.GreyStrategy = orDefault(nz.GreyStrategy, "inverted")
	}
	return nz
}

// JobHash digests one job's canonical form: hex SHA-256 of the
// defaults-applied struct re-marshalled as JSON. Insensitive to the
// submitted document's key order and whitespace; sensitive to every
// semantic field, including Meta, Rounds, and Trajectory (they change
// the rendered response).
func JobHash(j Job) (string, error) {
	b, err := json.Marshal(canonicalJob(j))
	if err != nil {
		return "", fmt.Errorf("wire: hash job: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// SweepHash digests a whole grid: the version tag and every job's
// canonical bytes, in order. The service counts a sweep cache hit as
// an alias hit when it differs from the entry creator's.
func SweepHash(s Sweep) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", orDefault(s.Version, V1))
	for i, j := range s.Jobs {
		b, err := json.Marshal(canonicalJob(j))
		if err != nil {
			return "", fmt.Errorf("wire: hash jobs[%d]: %w", i, err)
		}
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
