package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"taskalloc"
	"taskalloc/internal/scenario"
	"taskalloc/internal/wire"
)

// semJob wraps a config in the standard test envelope.
func semJob(c wire.Config) wire.Job {
	return wire.Job{Rounds: 120, Config: c}
}

func mustSemantic(t *testing.T, j wire.Job) string {
	t.Helper()
	h, err := wire.SemanticHash(j)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustSyntactic(t *testing.T, j wire.Job) string {
	t.Helper()
	h, err := wire.JobHash(j)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSemanticHashAliases: behaviorally identical spellings digest
// identically even when their syntactic hashes differ.
func TestSemanticHashAliases(t *testing.T) {
	base := wire.Config{Ants: 240, Epsilon: 0.5, Seed: 7, Shards: 2}

	step := &wire.Schedule{
		Kind: "step", Base: []int{40, 60},
		When: []uint64{50}, Vectors: [][]int{{70, 30}},
	}
	stepSched, err := step.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(stepSched, 300)
	if err != nil {
		t.Fatal(err)
	}
	frozenEnc, err := wire.FromSchedule(frozen)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		a, b func(wire.Config) wire.Config
	}{
		{
			// The flagship alias of the issue: a snapshot and the
			// generative schedule it froze, with identical realized demand.
			"frozen vs generative",
			func(c wire.Config) wire.Config { c.Schedule = &frozenEnc; return c },
			func(c wire.Config) wire.Config { c.Schedule = step; return c },
		},
		{
			"demands vs static schedule",
			func(c wire.Config) wire.Config { c.Demands = []int{40, 60}; return c },
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{Kind: "static", Base: []int{40, 60}}
				return c
			},
		},
		{
			"demand_changes vs step schedule",
			func(c wire.Config) wire.Config {
				c.Demands = []int{40, 60}
				c.DemandChanges = []wire.DemandChange{{At: 50, Demands: []int{70, 30}}}
				return c
			},
			func(c wire.Config) wire.Config { c.Schedule = step; return c },
		},
		{
			"one-point trace vs static",
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{Kind: "trace", When: []uint64{0}, Vectors: [][]int{{40, 60}}}
				return c
			},
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{Kind: "static", Base: []int{40, 60}}
				return c
			},
		},
		{
			"degenerate markov vs step",
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{
					Kind:    "markov",
					Regimes: [][]int{{40, 60}, {70, 30}},
					P:       [][]float64{{0, 1}, {0, 1}},
					Dwell:   50,
					Seed:    99, // seed is behaviorally dead in a deterministic chain
				}
				return c
			},
			func(c wire.Config) wire.Config { c.Schedule = step; return c },
		},
		{
			"no-op resize dropped",
			func(c wire.Config) wire.Config {
				c.Demands = []int{40, 60}
				c.SizeChanges = []wire.SizeChange{{At: 30, To: 240}, {At: 60, To: 120}}
				return c
			},
			func(c wire.Config) wire.Config {
				c.Demands = []int{40, 60}
				c.SizeChanges = []wire.SizeChange{{At: 60, To: 120}}
				return c
			},
		},
		{
			"no-op noise switch dropped",
			func(c wire.Config) wire.Config {
				c.Demands = []int{40, 60}
				c.Noise = &wire.Noise{Kind: "sigmoid", GammaStar: 0.02}
				c.NoiseChanges = []wire.NoiseChange{
					{At: 40, Noise: wire.Noise{Kind: "sigmoid", GammaStar: 0.02}},
				}
				return c
			},
			func(c wire.Config) wire.Config {
				c.Demands = []int{40, 60}
				c.Noise = &wire.Noise{Kind: "sigmoid", GammaStar: 0.02}
				return c
			},
		},
		{
			"single-part compose vs operand",
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{Kind: "compose", When: []uint64{0}, Parts: []wire.Schedule{*step}}
				return c
			},
			func(c wire.Config) wire.Config { c.Schedule = step; return c },
		},
		{
			"zero-sigma stablenoise vs inner",
			func(c wire.Config) wire.Config {
				c.Schedule = &wire.Schedule{Kind: "stablenoise", Alpha: 1.5, Every: 10, Seed: 3, Inner: step}
				return c
			},
			func(c wire.Config) wire.Config { c.Schedule = step; return c },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ja, jb := semJob(tc.a(base)), semJob(tc.b(base))
			if mustSyntactic(t, ja) == mustSyntactic(t, jb) {
				t.Fatal("spellings are syntactically identical; alias test is vacuous")
			}
			ha, hb := mustSemantic(t, ja), mustSemantic(t, jb)
			if ha != hb {
				t.Fatalf("semantic hashes differ:\n a: %s\n b: %s", ha, hb)
			}
		})
	}
}

// TestSemanticHashDistinguishes: behaviorally different configs keep
// different semantic hashes, and invalid configs keep their syntactic
// identity instead of aliasing.
func TestSemanticHashDistinguishes(t *testing.T) {
	base := wire.Config{Ants: 240, Epsilon: 0.5, Seed: 7, Shards: 2}

	t.Run("different demand", func(t *testing.T) {
		a, b := base, base
		a.Demands = []int{40, 60}
		b.Demands = []int{60, 40}
		if mustSemantic(t, semJob(a)) == mustSemantic(t, semJob(b)) {
			t.Fatal("distinct demands alias")
		}
	})
	t.Run("live markov keeps its seed", func(t *testing.T) {
		mk := func(seed uint64) wire.Config {
			c := base
			c.Schedule = &wire.Schedule{
				Kind:    "markov",
				Regimes: [][]int{{40, 60}, {70, 30}},
				P:       [][]float64{{0.5, 0.5}, {0.5, 0.5}},
				Dwell:   25,
				Seed:    seed,
			}
			return c
		}
		if mustSemantic(t, semJob(mk(1))) == mustSemantic(t, semJob(mk(2))) {
			t.Fatal("random chain seeds alias")
		}
	})
	t.Run("invalid schedule keeps syntactic identity", func(t *testing.T) {
		a, b := base, base
		// Both invalid (amp > 1), syntactically distinct: must stay distinct.
		a.Schedule = &wire.Schedule{Kind: "sinusoid", Base: []int{40, 60}, Amp: []float64{2, 0}, Period: 10}
		b.Schedule = &wire.Schedule{Kind: "sinusoid", Base: []int{40, 60}, Amp: []float64{3, 0}, Period: 10}
		if mustSemantic(t, semJob(a)) == mustSemantic(t, semJob(b)) {
			t.Fatal("invalid schedules alias")
		}
	})
	t.Run("schedule plus demands keeps syntactic identity", func(t *testing.T) {
		// Mutually exclusive spellings: taskalloc.New rejects the combined
		// form, so it must not alias the valid schedule-only config.
		a, b := base, base
		a.Schedule = &wire.Schedule{Kind: "static", Base: []int{40, 60}}
		a.Demands = []int{40, 60}
		b.Schedule = &wire.Schedule{Kind: "static", Base: []int{40, 60}}
		if mustSemantic(t, semJob(a)) == mustSemantic(t, semJob(b)) {
			t.Fatal("invalid combined spelling aliases the valid config")
		}
	})
	t.Run("invalid timeline keeps events", func(t *testing.T) {
		a, b := base, base
		a.Demands = []int{40, 60}
		b.Demands = []int{40, 60}
		// Non-increasing At: invalid, so the no-op resize is NOT dropped.
		a.SizeChanges = []wire.SizeChange{{At: 30, To: 240}, {At: 30, To: 120}}
		b.SizeChanges = []wire.SizeChange{{At: 30, To: 120}}
		if mustSemantic(t, semJob(a)) == mustSemantic(t, semJob(b)) {
			t.Fatal("invalid timeline aliased a valid one")
		}
	})
	t.Run("meta and rounds stay significant", func(t *testing.T) {
		a, b := semJob(base), semJob(base)
		a.Config.Demands = []int{40, 60}
		b.Config.Demands = []int{40, 60}
		b.Meta = []string{"x"}
		if mustSemantic(t, a) == mustSemantic(t, b) {
			t.Fatal("meta not hashed")
		}
		b.Meta = nil
		b.Rounds = 121
		if mustSemantic(t, a) == mustSemantic(t, b) {
			t.Fatal("rounds not hashed")
		}
	})
	t.Run("domain-separated from syntactic hash", func(t *testing.T) {
		c := base
		c.Demands = []int{40, 60}
		j := semJob(c)
		if mustSemantic(t, j) == mustSyntactic(t, j) {
			t.Fatal("semantic and syntactic hashes share a domain")
		}
	})
}

// TestSemanticSweepHashAliases: grid-level aliasing — two sweeps whose
// cells are pairwise behaviorally equivalent share one semantic sweep
// hash, the key the service's result cache uses.
func TestSemanticSweepHashAliases(t *testing.T) {
	step := &wire.Schedule{
		Kind: "step", Base: []int{40, 60},
		When: []uint64{50}, Vectors: [][]int{{70, 30}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sched, 300)
	if err != nil {
		t.Fatal(err)
	}
	frozenEnc, err := wire.FromSchedule(frozen)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sc *wire.Schedule) wire.Sweep {
		var jobs []wire.Job
		for _, gamma := range []float64{0.01, 0.02, 0.03} {
			jobs = append(jobs, wire.Job{
				Rounds: 120,
				Config: wire.Config{Ants: 240, Epsilon: 0.5, Gamma: gamma, Seed: 7, Shards: 2, Schedule: sc},
			})
		}
		return wire.Sweep{Version: wire.V1, Jobs: jobs}
	}
	syn1, err := wire.SweepHash(mk(&frozenEnc))
	if err != nil {
		t.Fatal(err)
	}
	syn2, err := wire.SweepHash(mk(step))
	if err != nil {
		t.Fatal(err)
	}
	if syn1 == syn2 {
		t.Fatal("sweeps are syntactically identical; alias test is vacuous")
	}
	sem1, err := wire.SemanticSweepHash(mk(&frozenEnc))
	if err != nil {
		t.Fatal(err)
	}
	sem2, err := wire.SemanticSweepHash(mk(step))
	if err != nil {
		t.Fatal(err)
	}
	if sem1 != sem2 {
		t.Fatalf("semantic sweep hashes differ:\n a: %s\n b: %s", sem1, sem2)
	}
}

// TestSemanticSweepKeys: Admit's one pass keys a grid as the hash
// functions do — its ID is SemanticSweepHash, its SynID SweepHash, and
// each key the per-job SemanticHash of the job with Trajectory cleared —
// over this grid and every testdata/wire document; and a job and its
// trajectory twin share a key (the report they produce is the same)
// while splitting the sweep id.
func TestSemanticSweepKeys(t *testing.T) {
	step := &wire.Schedule{
		Kind: "step", Base: []int{40, 60},
		When: []uint64{50}, Vectors: [][]int{{70, 30}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sched, 300)
	if err != nil {
		t.Fatal(err)
	}
	frozenEnc, err := wire.FromSchedule(frozen)
	if err != nil {
		t.Fatal(err)
	}
	job := func(sc *wire.Schedule, gamma float64, traj bool) wire.Job {
		return wire.Job{Rounds: 120, Trajectory: traj, Meta: []string{"g"},
			Config: wire.Config{Ants: 240, Gamma: gamma, Seed: 7, Shards: 1, Schedule: sc}}
	}
	sweep := wire.Sweep{Version: wire.V1, Jobs: []wire.Job{
		job(&frozenEnc, 0.01, false),
		job(&frozenEnc, 0.02, true),
		job(step, 0.02, false),
		job(nil, 0.03, false), // no demand: keeps its syntactic identity
	}}
	admitKeys := func(sweep wire.Sweep) *wire.Grid {
		t.Helper()
		g, err := wire.Admit(sweep, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.SemanticSweepHash(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if g.ID != want {
			t.Fatalf("sweep id %s, SemanticSweepHash %s", g.ID, want)
		}
		if syn, err := wire.SweepHash(sweep); err != nil || g.SynID != syn {
			t.Fatalf("syntactic id %s, SweepHash %s (err %v)", g.SynID, syn, err)
		}
		if len(g.Keys) != len(sweep.Jobs) {
			t.Fatalf("%d keys for %d jobs", len(g.Keys), len(sweep.Jobs))
		}
		for i, j := range sweep.Jobs {
			j.Trajectory = false
			if k := mustSemantic(t, j); g.Keys[i] != k {
				t.Fatalf("keys[%d] = %s, SemanticHash without trajectory = %s", i, g.Keys[i], k)
			}
		}
		return g
	}
	for _, doc := range seedCorpus(t) {
		s, err := wire.DecodeSweep(bytes.NewReader(doc.data))
		if err != nil {
			t.Fatal(err)
		}
		admitKeys(s)
	}
	g := admitKeys(sweep)
	if g.Keys[1] != g.Keys[2] {
		t.Fatal("a trajectory job and its behavioral twin got different keys")
	}
	noTraj := sweep
	noTraj.Jobs = append([]wire.Job(nil), sweep.Jobs...)
	noTraj.Jobs[1].Trajectory = false
	if other, err := wire.Admit(noTraj, false); err != nil || other.ID == g.ID {
		t.Fatalf("trajectory flag not in the sweep id (err %v)", err)
	}
}

// TestSemanticBisectHashAliases: bisect affinity follows the template
// job's behavioral identity, and the search parameters stay significant.
func TestSemanticBisectHashAliases(t *testing.T) {
	mk := func(sc *wire.Schedule, demands []int, band float64) wire.BisectRequest {
		return wire.BisectRequest{
			Version:    wire.V1,
			Job:        wire.Job{Rounds: 120, Config: wire.Config{Ants: 240, Epsilon: 0.5, Seed: 7, Shards: 2, Schedule: sc, Demands: demands}},
			GammaLo:    0.01,
			GammaHi:    0.05,
			TargetBand: band,
		}
	}
	static := &wire.Schedule{Kind: "static", Base: []int{40, 60}}
	a, err := wire.SemanticBisectHash(mk(static, nil, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := wire.SemanticBisectHash(mk(nil, []int{40, 60}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent templates split the bisect hash:\n a: %s\n b: %s", a, b)
	}
	c, err := wire.SemanticBisectHash(mk(static, nil, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("target band not hashed")
	}
}

// TestSemanticHashEquivalentTrajectories is the safety net behind the
// aliasing rules: any two spellings this file asserts semantically
// equal must also replay identical trajectories through the engine.
func TestSemanticHashEquivalentTrajectories(t *testing.T) {
	step := &wire.Schedule{
		Kind: "step", Base: []int{40, 60},
		When: []uint64{50}, Vectors: [][]int{{70, 30}},
	}
	sched, err := step.ToSchedule()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sched, 300)
	if err != nil {
		t.Fatal(err)
	}
	frozenEnc, err := wire.FromSchedule(frozen)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc *wire.Schedule) []string {
		c := wire.Config{Ants: 240, Epsilon: 0.5, Seed: 7, Shards: 2, Schedule: sc}
		cfg, err := c.ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := taskalloc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		sim.Run(120, func(round uint64, loads []int, demands []int) {
			rows = append(rows, fmt.Sprintf("%d %v %v", round, loads, demands))
		})
		return rows
	}
	a, b := run(&frozenEnc), run(step)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverged:\n frozen: %s\n   step: %s", i, a[i], b[i])
		}
	}
}
