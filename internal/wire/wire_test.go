package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/goldencases"
	"taskalloc/internal/scenario"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// schedules builds one live instance of every family the codec covers.
func schedules(t *testing.T) map[string]demand.Schedule {
	t.Helper()
	base := demand.Vector{40, 60}
	sin, err := scenario.NewSinusoid(base, []float64{0.3, 0.5}, 120, []float64{0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := scenario.NewBurst(base, demand.Vector{90, 60}, 30, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := scenario.NewRandomWalk(base, 4, 8, demand.Vector{20, 30}, demand.Vector{70, 90}, 11)
	if err != nil {
		t.Fatal(err)
	}
	markov, err := scenario.NewMarkovModulated(
		[]demand.Vector{base, {60, 40}, {50, 50}},
		[][]float64{{0.5, 0.3, 0.2}, {0.1, 0.8, 0.1}, {0.25, 0.25, 0.5}}, 16, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.NewTrace([]uint64{0, 40, 90}, []demand.Vector{base, {55, 45}, {45, 55}})
	if err != nil {
		t.Fatal(err)
	}
	step, err := demand.NewStep(base, []uint64{50, 120}, []demand.Vector{{30, 70}, {70, 30}})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sin, 200)
	if err != nil {
		t.Fatal(err)
	}
	compose, err := scenario.NewCompose([]demand.Schedule{demand.Static{V: base}, sin}, []uint64{0, 70})
	if err != nil {
		t.Fatal(err)
	}
	modulate, err := scenario.NewModulate(burst, []float64{1.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	superpose, err := scenario.NewSuperpose([]demand.Schedule{step, markov})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := scenario.NewStableNoise(walk, 1.4, 6, 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]demand.Schedule{
		"static":      demand.Static{V: base},
		"step":        step,
		"sinusoid":    sin,
		"burst":       burst,
		"randomwalk":  walk,
		"markov":      markov,
		"trace":       tr,
		"frozen":      frozen,
		"compose":     compose,
		"modulate":    modulate,
		"superpose":   superpose,
		"stablenoise": stable,
	}
}

// TestScheduleRoundTripFamilies: every family survives encode → JSON →
// decode → re-encode structurally, and the reconstructed schedule
// yields the same demand vector at every round of a long horizon
// (generative seeds included).
func TestScheduleRoundTripFamilies(t *testing.T) {
	for name, orig := range schedules(t) {
		t.Run(name, func(t *testing.T) {
			enc, err := wire.FromSchedule(orig)
			if err != nil {
				t.Fatal(err)
			}
			if enc.Kind != name {
				t.Fatalf("kind = %q, want %q", enc.Kind, name)
			}
			blob, err := json.Marshal(enc)
			if err != nil {
				t.Fatal(err)
			}
			var dec wire.Schedule
			if err := json.Unmarshal(blob, &dec); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := dec.ToSchedule()
			if err != nil {
				t.Fatal(err)
			}
			if got := rebuilt.Tasks(); got != orig.Tasks() {
				t.Fatalf("tasks = %d, want %d", got, orig.Tasks())
			}
			for round := uint64(0); round <= 300; round++ {
				want := orig.At(round)
				got := rebuilt.At(round)
				if !want.Equal(got) {
					t.Fatalf("At(%d) = %v, want %v", round, got, want)
				}
			}
			// The re-encoding is structurally identical — the codec is a
			// fixed point after one round trip.
			enc2, err := wire.FromSchedule(rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(enc, enc2) {
				t.Fatalf("re-encode drifted:\n first: %+v\nsecond: %+v", enc, enc2)
			}
		})
	}
}

// TestConfigRoundTripTimeline: a config carrying every event axis —
// SizeChanges (Resize), NoiseChanges (NoiseSwitch through three noise
// kinds), a generative schedule — round-trips through the codec and the
// rebuilt config replays the exact same trajectory.
func TestConfigRoundTripTimeline(t *testing.T) {
	sin, err := scenario.NewSinusoid(demand.Vector{30, 50}, []float64{0.4, 0.4}, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taskalloc.Config{
		Ants:      300,
		Algorithm: taskalloc.PreciseSigmoid,
		Gamma:     0.05,
		Epsilon:   0.5,
		Noise:     taskalloc.SigmoidNoise(0.03),
		Demand:    sin,
		SizeChanges: []taskalloc.SizeChange{
			{At: 40, To: 200},
			{At: 90, To: 300},
		},
		NoiseChanges: []taskalloc.NoiseChange{
			{At: 50, Noise: taskalloc.AdversarialNoise(0.06)},
			{At: 100, Noise: taskalloc.PerfectNoise()},
		},
		Seed:   3,
		Shards: 2,
		BurnIn: 20,
	}

	enc, err := wire.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var dec wire.Config
	if err := json.Unmarshal(blob, &dec); err != nil {
		t.Fatal(err)
	}
	cfg2, err := dec.ToConfig()
	if err != nil {
		t.Fatal(err)
	}

	run := func(c taskalloc.Config) []byte {
		t.Helper()
		sim, err := taskalloc.New(c)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		rec := wire.NewTrajectoryRecorder(len(sim.Demands()))
		sim.Run(140, rec.Observer(sim))
		return rec.Bytes()
	}
	a, b := run(cfg), run(cfg2)
	if !bytes.Equal(a, b) {
		t.Fatalf("round-tripped config diverged from the original trajectory")
	}

	// Structural fixed point too.
	enc2, err := wire.FromConfig(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enc, enc2) {
		t.Fatalf("re-encode drifted:\n first: %+v\nsecond: %+v", enc, enc2)
	}
}

// TestConfigAlgorithmNames: every algorithm crosses the codec under its
// taskalloc name (Ant, the default, under none), and an out-of-range
// Algorithm is rejected on encode as an unknown name is on decode.
func TestConfigAlgorithmNames(t *testing.T) {
	for _, a := range []taskalloc.Algorithm{taskalloc.Ant, taskalloc.PreciseSigmoid, taskalloc.PreciseAdversarial, taskalloc.Trivial} {
		want := a.String()
		if a == taskalloc.Ant {
			want = ""
		}
		enc, err := wire.FromConfig(taskalloc.Config{Algorithm: a})
		if err != nil || enc.Algorithm != want {
			t.Fatalf("FromConfig(%v) = %q, %v", a, enc.Algorithm, err)
		}
		dec, err := enc.ToConfig()
		if err != nil || dec.Algorithm != a {
			t.Fatalf("ToConfig(%q) = %v, %v; want %v", enc.Algorithm, dec.Algorithm, err, a)
		}
	}
	for _, a := range []taskalloc.Algorithm{-1, 9} {
		if _, err := wire.FromConfig(taskalloc.Config{Algorithm: a}); err == nil {
			t.Fatalf("FromConfig accepted algorithm %d", int(a))
		}
	}
	if _, err := (wire.Config{Algorithm: "x"}).ToConfig(); err == nil || err.Error() != `wire: unknown algorithm "x"` {
		t.Fatalf("ToConfig(\"x\") error = %v", err)
	}
}

// TestGoldenCorpusRoundTrip proves the wire format round-trips the
// whole existing scenario corpus: every golden case's config crosses
// the codec and still replays byte-identical to goldencases.CSV.
func TestGoldenCorpusRoundTrip(t *testing.T) {
	for _, c := range goldencases.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			want, err := goldencases.CSV(c)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			enc, err := wire.FromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(enc)
			if err != nil {
				t.Fatal(err)
			}
			var dec wire.Config
			if err := json.Unmarshal(blob, &dec); err != nil {
				t.Fatal(err)
			}
			cfg2, err := dec.ToConfig()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := taskalloc.New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			rec := wire.NewTrajectoryRecorder(len(sim.Demands()))
			sim.Run(c.Rounds, rec.Observer(sim))
			if !bytes.Equal(rec.Bytes(), want) {
				t.Fatalf("wire round trip changed the %s trajectory", c.Name)
			}
		})
	}
}

func baseJob(t *testing.T) wire.Job {
	t.Helper()
	return wire.Job{
		Meta:   []string{"gamma", "0.04", "sinusoid", "3"},
		Rounds: 500,
		Config: wire.Config{
			Ants:    800,
			Gamma:   0.04,
			Epsilon: 0.5,
			Noise:   &wire.Noise{Kind: "sigmoid", GammaStar: 0.02},
			Schedule: &wire.Schedule{
				Kind: "sinusoid", Base: []int{100, 150},
				Amp: []float64{0.3, 0.3}, Period: 200, Phase: []float64{0, 0},
			},
			SizeChanges: []wire.SizeChange{{At: 100, To: 400}},
			Seed:        3,
			Shards:      1,
		},
	}
}

// TestHashKeyOrderInsensitive: the canonical hash depends on content,
// not on the submitted document's key order or whitespace.
func TestHashKeyOrderInsensitive(t *testing.T) {
	a := `{
	  "version": "taskalloc/v1",
	  "jobs": [{"rounds": 100, "config": {"ants": 50, "seed": 2, "gamma": 0.04, "shards": 1}}]
	}`
	b := `{"jobs":[{"config":{"shards":1,"gamma":0.04,"seed":2,"ants":50},"rounds":100}],"version":"taskalloc/v1"}`
	sa, err := wire.DecodeSweep(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := wire.DecodeSweep(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := wire.SweepHash(sa)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := wire.SweepHash(sb)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("key order changed the hash: %s vs %s", ha, hb)
	}
}

// TestHashFieldSensitivity: every semantic field moves the hash.
func TestHashFieldSensitivity(t *testing.T) {
	base := baseJob(t)
	baseHash, err := wire.JobHash(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*wire.Job){
		"seed":            func(j *wire.Job) { j.Config.Seed = 4 },
		"gamma":           func(j *wire.Job) { j.Config.Gamma = 0.05 },
		"epsilon":         func(j *wire.Job) { j.Config.Epsilon = 0.25 },
		"ants":            func(j *wire.Job) { j.Config.Ants = 900 },
		"shards":          func(j *wire.Job) { j.Config.Shards = 2 },
		"rounds":          func(j *wire.Job) { j.Rounds = 600 },
		"meta":            func(j *wire.Job) { j.Meta = []string{"gamma", "0.05", "sinusoid", "3"} },
		"trajectory":      func(j *wire.Job) { j.Trajectory = true },
		"algorithm":       func(j *wire.Job) { j.Config.Algorithm = "trivial" },
		"init":            func(j *wire.Job) { j.Config.Init = "uniform" },
		"burn_in":         func(j *wire.Job) { j.Config.BurnIn = 10 },
		"noise.kind":      func(j *wire.Job) { j.Config.Noise = &wire.Noise{Kind: "perfect"} },
		"noise.gammastar": func(j *wire.Job) { j.Config.Noise = &wire.Noise{Kind: "sigmoid", GammaStar: 0.03} },
		"sched.period":    func(j *wire.Job) { j.Config.Schedule.Period = 250 },
		"sched.amp":       func(j *wire.Job) { j.Config.Schedule.Amp = []float64{0.3, 0.4} },
		"sched.base":      func(j *wire.Job) { j.Config.Schedule.Base = []int{100, 151} },
		"sched.kind": func(j *wire.Job) {
			j.Config.Schedule = &wire.Schedule{Kind: "static", Base: []int{100, 150}}
		},
		"size_change.at": func(j *wire.Job) { j.Config.SizeChanges = []wire.SizeChange{{At: 101, To: 400}} },
		"size_change.to": func(j *wire.Job) { j.Config.SizeChanges = []wire.SizeChange{{At: 100, To: 401}} },
		"noise_changes": func(j *wire.Job) {
			j.Config.NoiseChanges = []wire.NoiseChange{{At: 50, Noise: wire.Noise{Kind: "perfect"}}}
		},
		"sequential": func(j *wire.Job) { j.Config.Sequential = true; j.Config.Shards = 0 },
		"mean_field": func(j *wire.Job) { j.Config.MeanField = true },
	}
	seen := map[string]string{baseHash: "base"}
	for name, mutate := range mutations {
		j := baseJob(t)
		// Deep-ish copy of the pointer fields the mutations touch.
		sched := *j.Config.Schedule
		j.Config.Schedule = &sched
		nz := *j.Config.Noise
		j.Config.Noise = &nz
		mutate(&j)
		h, err := wire.JobHash(j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestHashCanonicalDefaults: elided defaults hash like their explicit
// forms — the semantic identity the result cache relies on.
func TestHashCanonicalDefaults(t *testing.T) {
	explicit := wire.Job{
		Rounds: 100,
		Config: wire.Config{
			Ants:      50,
			Algorithm: "ant",
			Init:      "idle",
			Gamma:     1.0 / 16,
			Seed:      1,
			Noise:     &wire.Noise{Kind: "sigmoid", GammaStar: 1.0 / 32},
			Shards:    1,
		},
	}
	elided := wire.Job{
		Rounds: 100,
		Config: wire.Config{Ants: 50, Shards: 1},
	}
	he, err := wire.JobHash(explicit)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := wire.JobHash(elided)
	if err != nil {
		t.Fatal(err)
	}
	if he != hd {
		t.Fatalf("defaults are not canonical: %s vs %s", he, hd)
	}
}

// TestHashCanonicalNoiseChanges: NoiseChanges entries resolve defaults
// exactly like the top-level Noise (buildNoiseModel treats them the
// same), so eliding gamma_star = γ/2 or grey_strategy = "inverted"
// inside a noise_changes entry must not change the hash.
func TestHashCanonicalNoiseChanges(t *testing.T) {
	job := func(changes []wire.NoiseChange) wire.Job {
		return wire.Job{
			Rounds: 50,
			Config: wire.Config{
				Ants: 40, Demands: []int{5}, Gamma: 0.04, Shards: 1,
				NoiseChanges: changes,
			},
		}
	}
	pairs := [][2][]wire.NoiseChange{
		{
			{{At: 10, Noise: wire.Noise{Kind: "sigmoid"}}},
			{{At: 10, Noise: wire.Noise{Kind: "sigmoid", GammaStar: 0.02}}},
		},
		{
			{{At: 10, Noise: wire.Noise{Kind: "adversarial", GammaAd: 0.05}}},
			{{At: 10, Noise: wire.Noise{Kind: "adversarial", GammaAd: 0.05, GreyStrategy: "inverted"}}},
		},
	}
	for i, p := range pairs {
		ha, err := wire.JobHash(job(p[0]))
		if err != nil {
			t.Fatal(err)
		}
		hb, err := wire.JobHash(job(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Errorf("pair %d: elided noise_changes defaults changed the hash", i)
		}
	}
}

// TestHashDoesNotMutateInput: canonicalization happens on a copy — the
// submitted document must re-encode byte-identically after hashing
// (regression: NoiseChanges aliased the caller's backing array).
func TestHashDoesNotMutateInput(t *testing.T) {
	j := wire.Job{
		Rounds: 50,
		Config: wire.Config{
			Ants:    40,
			Demands: []int{5},
			NoiseChanges: []wire.NoiseChange{
				{At: 10, Noise: wire.Noise{GammaStar: 0.02}}, // Kind elided
			},
		},
	}
	s := wire.Sweep{Version: wire.V1, Jobs: []wire.Job{j}}
	before, err := wire.MarshalSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.SweepHash(s); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.JobHash(s.Jobs[0]); err != nil {
		t.Fatal(err)
	}
	after, err := wire.MarshalSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("hashing mutated the document:\nbefore: %s\nafter:  %s", before, after)
	}
	if s.Jobs[0].Config.NoiseChanges[0].Noise.Kind != "" {
		t.Fatalf("hashing wrote through NoiseChanges: %+v", s.Jobs[0].Config.NoiseChanges[0])
	}
}

// TestSweepJobsRoundTrip: a sweeprun grid crosses FromJobs/ToJobs and
// the rebuilt jobs run to the same reports.
func TestSweepJobsRoundTrip(t *testing.T) {
	sin, err := scenario.NewSinusoid(demand.Vector{40, 60}, []float64{0.3, 0.3}, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := scenario.Freeze(sin, 220)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []sweeprun.Job
	for seed := uint64(1); seed <= 3; seed++ {
		jobs = append(jobs, sweeprun.Job{
			Meta: []string{"seed", "s", "frozen-sinusoid", "x"},
			Config: taskalloc.Config{
				Ants: 250, Demand: frozen, Seed: seed, Shards: 1,
				Noise: taskalloc.SigmoidNoise(0.04),
			},
			Rounds: 200,
		})
	}
	sweep, err := wire.FromJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	sweep2, err := wire.DecodeSweep(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	jobs2, err := wire.ToJobs(sweep2)
	if err != nil {
		t.Fatal(err)
	}
	want := sweeprun.Run(jobs, sweeprun.Options{Workers: 1})
	got := sweeprun.Run(jobs2, sweeprun.Options{Workers: 1})
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(want[i].Report, got[i].Report) {
			t.Fatalf("job %d report diverged:\n want %+v\n got %+v", i, want[i].Report, got[i].Report)
		}
	}
}

// TestDecodeRejects: versioning and strictness.
func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"empty":         ``,
		"no version":    `{"jobs":[]}`,
		"bad version":   `{"version":"taskalloc/v0","jobs":[]}`,
		"unknown field": `{"version":"taskalloc/v1","jobs":[],"extra":1}`,
		"unknown job":   `{"version":"taskalloc/v1","jobs":[{"rounds":1,"config":{"ants":1},"wat":2}]}`,
		"not json":      `hello`,
	}
	for name, doc := range cases {
		if _, err := wire.DecodeSweep(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScheduleDecodeRejects: constructor validation reaches the codec,
// and the frozen horizon is bounded.
func TestScheduleDecodeRejects(t *testing.T) {
	bad := []wire.Schedule{
		{},
		{Kind: "wat"},
		{Kind: "static"},
		{Kind: "static", Base: []int{0}},
		{Kind: "sinusoid", Base: []int{10}, Amp: []float64{0.5}, Period: 0},
		{Kind: "sinusoid", Base: []int{10}, Amp: []float64{1.5}, Period: 10},
		{Kind: "burst", Base: []int{10}, Peak: []int{20, 20}, Len: 1, Every: 10},
		{Kind: "randomwalk", Base: []int{10}, Step: 0, Every: 1, Min: []int{1}, Max: []int{20}},
		{Kind: "markov"},
		{Kind: "markov", Regimes: [][]int{{10}}, P: [][]float64{{0.5}}, Dwell: 1},
		{Kind: "trace"},
		{Kind: "trace", When: []uint64{5, 5}, Vectors: [][]int{{1}, {2}}},
		{Kind: "frozen", When: []uint64{0}, Vectors: [][]int{{5}}, Horizon: wire.MaxFrozenHorizon + 1},
		{Kind: "frozen", When: []uint64{0, 50}, Vectors: [][]int{{5}, {6}}, Horizon: 10},
		{Kind: "compose"},
		{Kind: "compose", When: []uint64{3}, Parts: []wire.Schedule{{Kind: "static", Base: []int{5}}}},
		{Kind: "compose", When: []uint64{0}, Parts: []wire.Schedule{{Kind: "wat"}}},
		{Kind: "superpose"},
		{Kind: "superpose", Parts: []wire.Schedule{{Kind: "static", Base: []int{1}}, {Kind: "static", Base: []int{1, 2}}}},
		{Kind: "modulate"},
		{Kind: "modulate", Scale: []float64{0}, Inner: &wire.Schedule{Kind: "static", Base: []int{5}}},
		{Kind: "stablenoise"},
		{Kind: "stablenoise", Alpha: 3, Sigma: 1, Every: 1, Inner: &wire.Schedule{Kind: "static", Base: []int{5}}},
	}
	for i, s := range bad {
		if _, err := s.ToSchedule(); err == nil {
			t.Errorf("case %d (%q) accepted", i, s.Kind)
		}
	}
}

// TestScheduleDepthCap: nesting beyond MaxScheduleDepth is rejected
// instead of recursed into (the fuzz seed for hostile documents).
func TestScheduleDepthCap(t *testing.T) {
	deep := wire.Schedule{Kind: "static", Base: []int{5}}
	for i := 0; i < wire.MaxScheduleDepth+1; i++ {
		inner := deep
		deep = wire.Schedule{Kind: "modulate", Scale: []float64{1}, Inner: &inner}
	}
	if _, err := deep.ToSchedule(); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
	// One level under the cap still decodes.
	ok := wire.Schedule{Kind: "static", Base: []int{5}}
	for i := 0; i < wire.MaxScheduleDepth-1; i++ {
		inner := ok
		ok = wire.Schedule{Kind: "modulate", Scale: []float64{1}, Inner: &inner}
	}
	if _, err := ok.ToSchedule(); err != nil {
		t.Fatalf("in-bounds nesting rejected: %v", err)
	}
}

// TestSeedCorpusValid: every checked-in fuzz seed document decodes,
// converts to runnable jobs, and hashes stably across a re-encode.
func TestSeedCorpusValid(t *testing.T) {
	for _, doc := range seedCorpus(t) {
		t.Run(doc.name, func(t *testing.T) {
			s, err := wire.DecodeSweep(bytes.NewReader(doc.data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wire.ToJobs(s); err != nil {
				t.Fatal(err)
			}
			h1, err := wire.SweepHash(s)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := wire.MarshalSweep(s)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := wire.DecodeSweep(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			h2, err := wire.SweepHash(s2)
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h2 {
				t.Fatalf("hash unstable across re-encode: %s vs %s", h1, h2)
			}
		})
	}
}
