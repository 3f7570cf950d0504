package taskalloc

import (
	"fmt"
	"math"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no ants", Config{Demands: []int{10}}},
		{"no demands", Config{Ants: 100}},
		{"zero demand entry", Config{Ants: 100, Demands: []int{10, 0}}},
		{"adversarial without gammaAd", Config{Ants: 100, Demands: []int{10},
			Noise: Noise{Kind: NoiseAdversarial}}},
		{"bad grey strategy", Config{Ants: 100, Demands: []int{10},
			Noise: Noise{Kind: NoiseAdversarial, GammaAd: 0.1, GreyStrategy: "nope"}}},
		{"precise without epsilon", Config{Ants: 100, Demands: []int{10},
			Algorithm: PreciseSigmoid}},
		{"gamma too large", Config{Ants: 100, Demands: []int{10}, Gamma: 0.2}},
		{"unknown algorithm", Config{Ants: 100, Demands: []int{10}, Algorithm: Algorithm(99)}},
		{"unknown noise", Config{Ants: 100, Demands: []int{10}, Noise: Noise{Kind: NoiseKind(99)}}},
		{"unknown init", Config{Ants: 100, Demands: []int{10}, Init: InitKind(99)}},
		{"assumptions: sum too large", Config{Ants: 100, Demands: []int{80},
			CheckAssumptions: true}},
		{"exact init too big", Config{Ants: 100, Demands: []int{200}, Init: InitExact}},
		{"bad demand change", Config{Ants: 100, Demands: []int{10},
			DemandChanges: []DemandChange{{At: 5, Demands: []int{1, 2}}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := New(Config{Ants: 100, Demands: []int{20}}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

func TestAlgorithmAndNoiseStrings(t *testing.T) {
	names := map[string]bool{}
	for _, a := range []Algorithm{Ant, PreciseSigmoid, PreciseAdversarial, Trivial, Algorithm(9)} {
		s := a.String()
		if s == "" || names[s] {
			t.Fatalf("bad algorithm string %q", s)
		}
		names[s] = true
	}
}

// TestParseAlgorithmRoundTrip: ParseAlgorithm inverts String on every
// algorithm and rejects any other name, out-of-range renderings
// included, with an error naming it.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{Ant, PreciseSigmoid, PreciseAdversarial, Trivial} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, s := range []string{"", "x", "Ant", Algorithm(9).String(), Algorithm(-1).String()} {
		_, err := ParseAlgorithm(s)
		if want := fmt.Sprintf("unknown algorithm %q", s); err == nil || err.Error() != want {
			t.Fatalf("ParseAlgorithm(%q) error = %v, want %s", s, err, want)
		}
	}
}

func TestQuickstartConverges(t *testing.T) {
	sim, err := New(Config{
		Ants:    4000,
		Demands: []int{600, 1000},
		Noise:   SigmoidNoise(0.03),
		Seed:    3,
		Shards:  2,
		BurnIn:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(8000, nil)
	rep := sim.Report()
	if rep.Rounds != 8000 {
		t.Fatalf("Rounds = %d", rep.Rounds)
	}
	if rep.AvgRegret > sim.RegretBand() {
		t.Fatalf("avg regret %v above Theorem 3.1 band %v", rep.AvgRegret, sim.RegretBand())
	}
	if rep.Closeness > 5*(1.0/16)/0.03+1 {
		t.Fatalf("closeness %v above 5·γ/γ*", rep.Closeness)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestCriticalValuePlacement(t *testing.T) {
	sim, err := New(Config{
		Ants:    2000,
		Demands: []int{400},
		Noise:   SigmoidNoise(0.04),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CriticalValue(); math.Abs(got-0.04)/0.04 > 1e-9 {
		t.Fatalf("γ* = %v, want 0.04", got)
	}
}

func TestObserverAndLoads(t *testing.T) {
	sim, err := New(Config{Ants: 500, Demands: []int{100}, Seed: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sim.Run(50, func(round uint64, loads []int, demands []int) {
		calls++
		if len(loads) != 1 || demands[0] != 100 {
			t.Fatal("observer payload wrong")
		}
	})
	if calls != 50 {
		t.Fatalf("observer called %d times", calls)
	}
	loads := sim.Loads()
	loads[0] = -5
	if sim.Loads()[0] == -5 {
		t.Fatal("Loads must return a copy")
	}
	if sim.Round() != 50 {
		t.Fatalf("Round = %d", sim.Round())
	}
}

func TestSequentialMode(t *testing.T) {
	sim, err := New(Config{
		Ants:       400,
		Demands:    []int{100},
		Algorithm:  Trivial,
		Sequential: true,
		Noise:      SigmoidNoise(0.05),
		Seed:       5,
		BurnIn:     20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60000, nil)
	rep := sim.Report()
	if rep.AvgRegret > 40 {
		t.Fatalf("sequential trivial avg regret %v", rep.AvgRegret)
	}
	if rep.Switches == 0 {
		t.Fatal("no switches recorded")
	}
	if sim.Round() != 60000 {
		t.Fatalf("Round = %d", sim.Round())
	}
	if len(sim.Loads()) != 1 {
		t.Fatal("Loads broken in sequential mode")
	}
}

func TestDemandChanges(t *testing.T) {
	sim, err := New(Config{
		Ants:    3000,
		Demands: []int{300, 600},
		DemandChanges: []DemandChange{
			{At: 3000, Demands: []int{600, 300}},
		},
		Noise:  SigmoidNoise(0.03),
		Seed:   6,
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var after []int
	sim.Run(7000, func(round uint64, loads []int, demands []int) {
		if round == 7000 {
			after = append([]int(nil), loads...)
			if demands[0] != 600 || demands[1] != 300 {
				t.Fatalf("demands not switched: %v", demands)
			}
		}
	})
	if after[0] < 450 || after[1] > 450 {
		t.Fatalf("loads %v did not track the swapped demands", after)
	}
}

func TestAdversarialNoiseAndStrategies(t *testing.T) {
	for _, strat := range []string{"", "truthful", "alternating", "always-lack",
		"always-overload", "random", "inverted"} {
		sim, err := New(Config{
			Ants:    1000,
			Demands: []int{200},
			Gamma:   0.05,
			Noise: Noise{Kind: NoiseAdversarial, GammaAd: 0.01,
				GreyStrategy: strat},
			Seed:   7,
			Shards: 1,
		})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		sim.Run(500, nil)
		if sim.CriticalValue() != 0.01 {
			t.Fatalf("strategy %q: γ* = %v", strat, sim.CriticalValue())
		}
	}
}

func TestPreciseAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{PreciseSigmoid, PreciseAdversarial} {
		sim, err := New(Config{
			Ants:      1000,
			Demands:   []int{200},
			Algorithm: alg,
			Gamma:     0.03,
			Epsilon:   0.5,
			Noise:     SigmoidNoise(0.03),
			Seed:      8,
			Shards:    1,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		sim.Run(1000, nil)
		if sim.Report().Rounds != 1000 {
			t.Fatalf("%v did not run", alg)
		}
	}
}

func TestInitKinds(t *testing.T) {
	for _, init := range []InitKind{InitIdle, InitUniform, InitFlood, InitExact} {
		sim, err := New(Config{
			Ants:    500,
			Demands: []int{100, 100},
			Init:    init,
			Seed:    9,
			Shards:  1,
		})
		if err != nil {
			t.Fatalf("init %d: %v", init, err)
		}
		switch init {
		case InitFlood:
			if got := sim.Loads(); got[0] != 500 || got[1] != 0 {
				t.Fatalf("flood loads %v", got)
			}
		case InitExact:
			if got := sim.Loads(); got[0] != 100 || got[1] != 100 {
				t.Fatalf("exact loads %v", got)
			}
		case InitIdle:
			if got := sim.Loads(); got[0] != 0 || got[1] != 0 {
				t.Fatalf("idle loads %v", got)
			}
		}
	}
}

func TestCorrelatedNoiseWrapper(t *testing.T) {
	sim, err := New(Config{
		Ants:    1000,
		Demands: []int{200},
		Noise: Noise{Kind: NoiseSigmoid, GammaStar: 0.04,
			CorrelatedFlipProb: 1e-6},
		Seed:   10,
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(200, nil)
	if sim.Report().Rounds != 200 {
		t.Fatal("correlated wrapper broke the run")
	}
}

func TestPerfectNoise(t *testing.T) {
	sim, err := New(Config{
		Ants:    1000,
		Demands: []int{200},
		Noise:   PerfectNoise(),
		Seed:    11,
		Shards:  1,
		// The γ/cd drain from the all-join overshoot takes ~900 rounds
		// (ln(n/d)·cd/γ phases); burn past it.
		BurnIn: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3500, nil)
	// Perfect feedback has γ* = 0; Closeness divides by it and must be NaN.
	rep := sim.Report()
	if !math.IsNaN(rep.Closeness) {
		t.Fatalf("closeness under perfect noise = %v, want NaN", rep.Closeness)
	}
	if rep.AvgRegret > 30 {
		t.Fatalf("perfect-noise regret %v", rep.AvgRegret)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Report {
		sim, err := New(Config{
			Ants: 800, Demands: []int{150, 150}, Seed: 12, Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(300, nil)
		return sim.Report()
	}
	a, b := run(), run()
	if a.TotalRegret != b.TotalRegret || a.Switches != b.Switches {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestMeanFieldEngine(t *testing.T) {
	sim, err := New(Config{
		Ants:      4000,
		Demands:   []int{600, 1000},
		MeanField: true,
		Noise:     SigmoidNoise(0.03),
		Seed:      13,
		BurnIn:    2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(8000, nil)
	rep := sim.Report()
	if rep.AvgRegret > sim.RegretBand() {
		t.Fatalf("mean-field avg regret %v above band %v", rep.AvgRegret, sim.RegretBand())
	}
	if sim.Switches() == 0 {
		t.Fatal("mean-field engine must track aggregate switches")
	}
	if len(sim.Loads()) != 2 || sim.Round() != 8000 {
		t.Fatal("accessors broken under mean-field engine")
	}
}

func TestMeanFieldValidation(t *testing.T) {
	base := Config{Ants: 100, Demands: []int{20}, MeanField: true}
	bad := []func(Config) Config{
		func(c Config) Config { c.Sequential = true; return c },
		func(c Config) Config { c.Algorithm = Trivial; return c },
		func(c Config) Config { c.Init = InitFlood; return c },
	}
	for i, mutate := range bad {
		if _, err := New(mutate(base)); err == nil {
			t.Fatalf("bad mean-field config %d accepted", i)
		}
	}
	ok := base
	ok.Init = InitExact
	if _, err := New(ok); err != nil {
		t.Fatalf("InitExact mean-field rejected: %v", err)
	}
}
