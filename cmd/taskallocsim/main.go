// Command taskallocsim runs a single task-allocation simulation from
// flags and prints the paper's metrics, optionally with an ASCII regret
// plot and a CSV trace.
//
// Examples:
//
//	taskallocsim -n 10000 -demands 1500,2500 -rounds 20000
//	taskallocsim -algorithm precise-sigmoid -epsilon 0.25 -gamma 0.03
//	taskallocsim -noise adversarial -gammaAd 0.02 -grey inverted
//	taskallocsim -algorithm trivial -sequential -rounds 100000
//	taskallocsim -csv trace.csv -plot
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/plot"
	"taskalloc/internal/trace"
)

func main() {
	var (
		n          = flag.Int("n", 10000, "colony size")
		demandsArg = flag.String("demands", "1500,2500", "comma-separated demands")
		algorithm  = flag.String("algorithm", "ant", "ant | precise-sigmoid | precise-adversarial | trivial")
		gamma      = flag.Float64("gamma", 1.0/16, "learning rate γ (≤ 1/16)")
		epsilon    = flag.Float64("epsilon", 0.5, "precision ε for the precise algorithms")
		noiseKind  = flag.String("noise", "sigmoid", "sigmoid | adversarial | perfect")
		gammaStar  = flag.Float64("gammaStar", 0, "place sigmoid γ* here (0 = γ/2)")
		lambda     = flag.Float64("lambda", 0, "sigmoid λ directly (overrides gammaStar)")
		gammaAd    = flag.Float64("gammaAd", 0.02, "adversarial threshold γad")
		grey       = flag.String("grey", "inverted", "grey-zone strategy")
		flip       = flag.Float64("correlatedFlip", 0, "correlated colony-wide flip probability")
		initKind   = flag.String("init", "idle", "idle | uniform | flood | exact")
		sequential = flag.Bool("sequential", false, "Appendix D.1 sequential scheduler")
		meanField  = flag.Bool("meanfield", false, "aggregate binomial engine (Ant only)")
		rounds     = flag.Int("rounds", 20000, "rounds to simulate")
		burn       = flag.Uint64("burn", 0, "burn-in rounds excluded from averages (0 = rounds/2)")
		seed       = flag.Uint64("seed", 1, "random seed")
		shards     = flag.Int("shards", 0, "parallel shards (0 = GOMAXPROCS)")
		csvPath    = flag.String("csv", "", "write a trace CSV to this path")
		doPlot     = flag.Bool("plot", false, "print an ASCII regret plot")
		every      = flag.Uint64("every", 0, "trace stride in rounds (0 = auto)")
	)
	flag.Parse()

	demands, err := parseInts(*demandsArg)
	if err != nil {
		fatal("bad -demands: %v", err)
	}
	alg, err := taskalloc.ParseAlgorithm(*algorithm)
	if err != nil {
		fatal("%v", err)
	}
	init, err := parseInit(*initKind)
	if err != nil {
		fatal("%v", err)
	}
	nz, err := parseNoise(*noiseKind, *lambda, *gammaStar, *gammaAd, *grey, *flip)
	if err != nil {
		fatal("%v", err)
	}
	if *burn == 0 {
		*burn = uint64(*rounds) / 2
	}

	sim, err := taskalloc.New(taskalloc.Config{
		Ants:       *n,
		Demands:    demands,
		Algorithm:  alg,
		Gamma:      *gamma,
		Epsilon:    *epsilon,
		Noise:      nz,
		Init:       init,
		Sequential: *sequential,
		MeanField:  *meanField,
		Seed:       *seed,
		Shards:     *shards,
		BurnIn:     *burn,
	})
	if err != nil {
		fatal("%v", err)
	}

	var tr *trace.Trace
	var obs taskalloc.Observer
	if *csvPath != "" || *doPlot {
		stride := *every
		if stride == 0 {
			stride = uint64(*rounds/2000) + 1
		}
		tr = trace.New(len(demands), stride, 4000)
		obs = func(round uint64, loads []int, demands []int) {
			tr.Observe(round, loads, demand.Vector(demands))
		}
	}

	sim.Run(*rounds, obs)
	rep := sim.Report()

	fmt.Printf("algorithm=%s noise=%s n=%d demands=%v rounds=%d burn=%d\n",
		alg, *noiseKind, *n, demands, *rounds, *burn)
	fmt.Printf("γ=%.4g γ*=%.4g Theorem-3.1 band=%.4g\n",
		*gamma, sim.CriticalValue(), sim.RegretBand())
	fmt.Println(rep)
	fmt.Printf("final loads=%v maxAbsDeficit=%v zeroCrossings=%v\n",
		sim.Loads(), rep.MaxAbsDeficit, rep.ZeroCrossings)

	if *doPlot && tr != nil {
		fig := plot.Chart{
			Title: "per-round regret r(t)",
			Width: 72, Height: 14,
			XLabel: fmt.Sprintf("rounds 1..%d (stride %d)", *rounds, tr.Stride()),
		}.Render(plot.Series{Name: "r(t)", Y: plot.Ints(tr.RegretSeries())})
		fmt.Println(fig)
	}
	if *csvPath != "" && tr != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal("create %s: %v", *csvPath, err)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fatal("write %s: %v", *csvPath, err)
		}
		fmt.Printf("trace written to %s (%d points)\n", *csvPath, tr.Len())
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInit(s string) (taskalloc.InitKind, error) {
	switch s {
	case "idle":
		return taskalloc.InitIdle, nil
	case "uniform":
		return taskalloc.InitUniform, nil
	case "flood":
		return taskalloc.InitFlood, nil
	case "exact":
		return taskalloc.InitExact, nil
	default:
		return 0, fmt.Errorf("unknown init %q", s)
	}
}

func parseNoise(kind string, lambda, gammaStar, gammaAd float64, grey string, flip float64) (taskalloc.Noise, error) {
	var nz taskalloc.Noise
	switch kind {
	case "sigmoid":
		nz = taskalloc.Noise{Kind: taskalloc.NoiseSigmoid, Lambda: lambda, GammaStar: gammaStar}
	case "adversarial":
		nz = taskalloc.Noise{Kind: taskalloc.NoiseAdversarial, GammaAd: gammaAd, GreyStrategy: grey}
	case "perfect":
		nz = taskalloc.PerfectNoise()
	default:
		return nz, fmt.Errorf("unknown noise %q", kind)
	}
	nz.CorrelatedFlipProb = flip
	return nz, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
