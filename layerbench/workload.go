package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"taskalloc/internal/scenario"
	"taskalloc/internal/wire"
)

// Workload generation is a pure function of (workload, seed, session
// index): every document a run sends — and every document its setup
// pre-warms — is derived here, from a splitmix64 stream keyed by those
// three values and nothing else. The servers receive only these wire
// documents.

// topology is the server layout a workload runs against.
type topology int

const (
	// topoDurable is one simserve with a data directory (sync off).
	topoDurable topology = iota
	// topoGridHetero is a coordinator over three memory-only simserves,
	// backend 1 slowed 10x per fresh job.
	topoGridHetero
)

// reqKind discriminates a session step.
type reqKind int

const (
	kindSweep   reqKind = iota // POST /v1/sweeps
	kindBisect                 // POST /v1/bisect
	kindRestart                // durable backend restart (simserver.Open on the same dir)
)

// request is one session step and the correctness gate its response
// must pass.
type request struct {
	kind   reqKind
	role   string // name of this step inside its session ("G", "G'", "B", ...)
	sweep  wire.Sweep
	bisect wire.BisectRequest

	// sameAs names an earlier step of the same session whose body (sweep)
	// or search path (bisect) this response must reproduce.
	sameAs string
	// sharesWith names an earlier sweep step whose first shared cells
	// must carry reports equal to this response's first shared cells.
	sharesWith string
	shared     int
	// sample marks the step for untimed re-execution after the loop.
	sample bool
}

// session is one experimenter's closed-loop episode.
type session struct {
	reqs []request
}

// workload is one benchmark traffic mix.
type workload struct {
	name    string
	topo    topology
	session func(seed uint64, i int) session
}

// workloads are the traffic mixes; BENCHMARK.json records why each was
// chosen. Each stresses different layers: grid-hetero coordinator
// fan-out, placement and work stealing (a 10x-slow backend sets the
// time), and durable-reuse the colony engine on its cold cells and
// bisects, the journal, blob cache, serving of memory and disk hits, and
// job reuse across a restart.
var workloads = []*workload{
	{name: "grid-hetero", topo: topoGridHetero, session: gridHeteroSession},
	{name: "durable-reuse", topo: topoDurable, session: durableSession},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Session indices at and above these bases never occur in a timed loop:
// setup warm-ups and the ledger draw from their own index ranges so
// their documents never collide with the measured ones.
const (
	warmupIndex = 1 << 30
	ledgerIndex = 1 << 31
)

// rng is splitmix64: tiny, fast, and a pure function of its seed.
type rng struct{ s uint64 }

// newRNG keys a stream on the given parts (workload name hash, seed,
// session index, ...).
func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seed draws a nonzero job seed (0 means "default" on the wire).
func (r *rng) seed() uint64 { return r.next()>>1 | 1 }

func nameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

var gammaChoices = []float64{1.0 / 16, 1.0 / 20, 1.0 / 24, 1.0 / 32}

// Bisect searches every workload runs: the γ interval and a band no
// segment meets, so each search spends exactly MaxEvals evaluations.
const (
	bisectLo   = 1.0 / 64
	bisectHi   = 1.0 / 16
	bisectBand = 1e-9
)

func bisectOf(tmpl wire.Job, evals int) wire.BisectRequest {
	tmpl.Config.Gamma = 0
	return wire.BisectRequest{
		Version:    wire.V1,
		Job:        tmpl,
		GammaLo:    bisectLo,
		GammaHi:    bisectHi,
		TargetBand: bisectBand,
		MaxEvals:   evals,
	}
}

// tinyJob is the grid workloads' cell: a small colony under a one-step
// demand schedule (so a frozen snapshot of it is a semantic alias).
func tinyJob(seed uint64, gamma float64, ants, rounds int) wire.Job {
	return wire.Job{
		Rounds: rounds,
		Config: wire.Config{
			Ants:  ants,
			Gamma: gamma,
			Seed:  seed,
			Schedule: &wire.Schedule{
				Kind:    "step",
				Base:    []int{ants / 5, ants * 3 / 10},
				When:    []uint64{uint64(rounds / 2)},
				Vectors: [][]int{{ants * 3 / 10, ants / 5}},
			},
			Shards: 1,
		},
	}
}

const (
	gridJobs      = 24
	tinyAnts      = 200
	tinyRounds    = 150
	heteroPerSess = 4
)

func tinyGrid(r *rng, tag string) wire.Sweep {
	sw := wire.Sweep{Version: wire.V1}
	for j := 0; j < gridJobs; j++ {
		job := tinyJob(r.seed(), gammaChoices[r.intn(len(gammaChoices))], tinyAnts, tinyRounds)
		job.Meta = []string{tag, fmt.Sprint(j)}
		sw.Jobs = append(sw.Jobs, job)
	}
	return sw
}

// gridHeteroSession: four fresh grids of tiny jobs and one fresh bisect,
// all over the fleet with the slow backend.
func gridHeteroSession(seed uint64, i int) session {
	r := newRNG(nameKey("grid-hetero"), seed, uint64(i))
	var s session
	for q := 0; q < heteroPerSess; q++ {
		s.reqs = append(s.reqs, request{
			kind: kindSweep, role: fmt.Sprintf("grid%d", q),
			sweep: tinyGrid(r, "hetero"), sample: q == 0,
		})
	}
	s.reqs = append(s.reqs, request{
		kind: kindBisect, role: "B",
		bisect: bisectOf(tinyJob(r.seed(), 0, tinyAnts, tinyRounds), 6), sample: i%4 == 0,
	})
	return s
}

// durableGammas are the dyadic points of the bisect interval the first
// two refinement rounds visit, computed exactly as the search computes
// them, so grid G warms the job cache for the bisect that follows it.
func durableGammas() []float64 {
	mid := (bisectLo + bisectHi) / 2
	return []float64{bisectLo, (bisectLo + mid) / 2, mid, (mid + bisectHi) / 2, bisectHi}
}

const (
	durableAnts   = 5_000
	durableRounds = 240
	durableShared = 4
	durableNew    = 3
)

// durableSession is one experimenter's session on a durable server:
// a cold grid G, a grid G' sharing most of G's cells plus new seeds, G
// in its alias spelling, a bisect B covering G's γ range, B again, a
// restart, then G, G', and B once more. (Five grid requests per
// session, so the median request falls inside one kind of request,
// not on the boundary between two.)
func durableSession(seed uint64, i int) session {
	r := newRNG(nameKey("durable-reuse"), seed, uint64(i))
	tmpl := tinyJob(r.seed(), 0, durableAnts, durableRounds)
	g := wire.Sweep{Version: wire.V1}
	for _, gamma := range durableGammas() {
		j := tmpl
		j.Config.Gamma = gamma
		g.Jobs = append(g.Jobs, j)
	}
	g2 := wire.Sweep{Version: wire.V1, Jobs: append([]wire.Job(nil), g.Jobs[:durableShared]...)}
	for k := 0; k < durableNew; k++ {
		j := tinyJob(r.seed(), durableGammas()[1+k], durableAnts, durableRounds)
		g2.Jobs = append(g2.Jobs, j)
	}
	b := bisectOf(tmpl, 8)
	return session{reqs: []request{
		{kind: kindSweep, role: "G", sweep: g},
		{kind: kindSweep, role: "G'", sweep: g2, sharesWith: "G", shared: durableShared},
		{kind: kindSweep, role: "G-alias", sweep: aliasOf(g), sameAs: "G"},
		{kind: kindBisect, role: "B", bisect: b},
		{kind: kindBisect, role: "B-repeat", bisect: b, sameAs: "B"},
		{kind: kindRestart, role: "restart"},
		{kind: kindSweep, role: "G-after-restart", sweep: g, sameAs: "G"},
		{kind: kindSweep, role: "G'-after-restart", sweep: g2, sameAs: "G'"},
		{kind: kindBisect, role: "B-after-restart", bisect: b, sameAs: "B"},
	}}
}

// aliasOf respells every step-scheduled job as the frozen snapshot of
// its schedule over the job's horizon: a different document (and
// syntactic hash) with the same behavior (and semantic hash). It
// panics only on a schedule this file did not generate.
func aliasOf(sw wire.Sweep) wire.Sweep {
	out := wire.Sweep{Version: sw.Version, Jobs: make([]wire.Job, len(sw.Jobs))}
	for i, j := range sw.Jobs {
		if j.Config.Schedule != nil {
			sched, err := j.Config.Schedule.ToSchedule()
			if err != nil {
				panic(fmt.Sprintf("layerbench: alias of generated schedule: %v", err))
			}
			frozen, err := scenario.Freeze(sched, uint64(j.Rounds))
			if err != nil {
				panic(fmt.Sprintf("layerbench: freeze generated schedule: %v", err))
			}
			enc, err := wire.FromSchedule(frozen)
			if err != nil {
				panic(fmt.Sprintf("layerbench: encode frozen schedule: %v", err))
			}
			j.Config.Schedule = &enc
		}
		out.Jobs[i] = j
	}
	return out
}

// sweepsOf lists a session's distinct sweep documents by semantic hash,
// in first-seen order.
func sweepsOf(s session) []wire.Sweep {
	seen := map[string]bool{}
	var out []wire.Sweep
	for _, q := range s.reqs {
		if q.kind != kindSweep {
			continue
		}
		id, err := wire.SemanticSweepHash(q.sweep)
		if err != nil || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, q.sweep)
	}
	return out
}

// antRounds is the simulated work a cell represents: colony size times
// horizon.
func antRounds(j wire.Job) float64 { return float64(j.Config.Ants) * float64(j.Rounds) }

func sweepAntRounds(sw wire.Sweep) float64 {
	var t float64
	for _, j := range sw.Jobs {
		t += antRounds(j)
	}
	return t
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
