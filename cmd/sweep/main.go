// Command sweep runs parameter sweeps over γ, ε, λ, n, or k and emits
// CSV rows of the resulting average regret and closeness — the raw
// material for regenerating the paper's trend curves at custom scales.
//
// The (value × seed) grid is executed by the multi-simulation batch
// runner (internal/sweeprun): -parallel N simulations run concurrently
// on a bounded worker group sharing one persistent shard worker pool,
// and rows are collected deterministically in grid order, so the CSV is
// byte-identical for every -parallel value (including 1).
//
// The -scenario flag replaces the static demand vector with a generative
// demand process from the scenario subsystem (sinusoid, burst,
// randomwalk, markov, trace), and -resize schedules colony-size changes
// (ants dying and hatching) during every run, so sweeps measure
// self-stabilization under change rather than steady state. -aggregate
// appends per-value ensemble statistics (mean/std/quantiles over seeds).
//
// The grid is exchangeable with the simulation service through the
// versioned wire format (internal/wire): -dump-jobs serializes the
// exact grid the flags resolve to (printing each job's syntactic and
// semantic hash on stderr), and -jobs replays a serialized grid
// through the same codec and CSV renderer, so a grid run locally,
// replayed from a file, or POSTed to cmd/simserve produces identical
// bytes. -jobs decodes through the service's decoder (wire.ToJobs), so
// it refuses a grid whose distinct frozen snapshots sum past the
// frozen-horizon budget, as the service does.
//
// Examples:
//
//	sweep -param gamma -values 0.01,0.02,0.04 -n 5000 -demands 800,800
//	sweep -param epsilon -algorithm precise-sigmoid -values 0.8,0.4,0.2
//	sweep -param n -values 2000,4000,8000 -repeat 3 -parallel 8 -aggregate
//	sweep -scenario sinusoid -sin-period 3000 -sin-amp 0.4
//	sweep -scenario burst -burst-every 4000 -burst-len 600 -burst-scale 2
//	sweep -scenario markov -markov-dwell 2500 -resize 6000:2500,9000:5000
//	sweep -param gamma -values 0.02,0.04 -dump-jobs grid.json
//	sweep -jobs grid.json -parallel 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

func main() {
	var (
		param      = flag.String("param", "gamma", "gamma | epsilon | gammaStar | n | shards")
		valuesArg  = flag.String("values", "0.01,0.02,0.04", "comma-separated sweep values")
		n          = flag.Int("n", 5000, "colony size (base)")
		demandsArg = flag.String("demands", "800,800", "comma-separated demands")
		algorithm  = flag.String("algorithm", "ant", "ant | precise-sigmoid | precise-adversarial | trivial")
		gamma      = flag.Float64("gamma", 1.0/16, "learning rate (base)")
		epsilon    = flag.Float64("epsilon", 0.5, "precision (base)")
		gammaStar  = flag.Float64("gammaStar", 0.02, "sigmoid critical value (base)")
		rounds     = flag.Int("rounds", 12000, "rounds per run")
		repeat     = flag.Int("repeat", 1, "repetitions per value (seeds seed..seed+repeat-1)")
		seed       = flag.Uint64("seed", 1, "base seed")
		resizeArg  = flag.String("resize", "", "colony-size schedule \"at:to,at:to\" (ants dying/hatching)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulations in flight (1 = serial; output is identical either way)")
		aggregate  = flag.Bool("aggregate", false, "append per-value ensemble statistics over the seeds")
		jobsFile   = flag.String("jobs", "", "replay a serialized job grid (wire JSON) instead of building one from flags")
		dumpJobs   = flag.String("dump-jobs", "", "serialize the grid the flags resolve to (wire JSON) and exit without running")
	)
	var sc scenarioOpts
	flag.StringVar(&sc.family, "scenario", "static",
		"demand process: static | sinusoid | burst | randomwalk | markov | trace")
	flag.Uint64Var(&sc.seed, "scenario-seed", 1, "seed of the generative demand process")
	flag.Float64Var(&sc.sinPeriod, "sin-period", 4000, "sinusoid: rounds per cycle")
	flag.Float64Var(&sc.sinAmp, "sin-amp", 0.5, "sinusoid: relative amplitude in [0, 1)")
	flag.Uint64Var(&sc.burstStart, "burst-start", 2000, "burst: first onset round")
	flag.Uint64Var(&sc.burstEvery, "burst-every", 4000, "burst: period (0 = single burst)")
	flag.Uint64Var(&sc.burstLen, "burst-len", 500, "burst: duration in rounds")
	flag.IntVar(&sc.burstTask, "burst-task", 0, "burst: task index that spikes")
	flag.Float64Var(&sc.burstScale, "burst-scale", 2, "burst: peak demand multiplier")
	flag.Uint64Var(&sc.walkEvery, "walk-every", 500, "random walk: rounds per step")
	flag.IntVar(&sc.walkStep, "walk-step", 0, "random walk: max step (0 = 10% of min demand)")
	flag.Float64Var(&sc.walkSpan, "walk-span", 0.5, "random walk: bounds base·(1±span)")
	flag.Uint64Var(&sc.markovDwell, "markov-dwell", 2000, "markov: rounds per sojourn decision")
	flag.Float64Var(&sc.markovStay, "markov-stay", 0.7, "markov: self-transition probability")
	flag.StringVar(&sc.markovRegimes, "markov-regimes", "",
		"markov: regimes \"d1,d2;d1,d2;...\" (default: base and its reverse)")
	flag.StringVar(&sc.traceFile, "trace-file", "", "trace: CSV of \"round,d1,d2,...\" lines")
	flag.Parse()

	if *jobsFile != "" {
		if *aggregate {
			fatal("-aggregate needs the flag-built grid's seed grouping; it cannot combine with -jobs")
		}
		if err := replayJobs(os.Stdout, *jobsFile, *parallel); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *rounds < 1 {
		fatal("bad -rounds: need >= 1, got %d", *rounds)
	}
	demands, err := parseInts(*demandsArg)
	if err != nil {
		fatal("bad -demands: %v", err)
	}
	resizes, err := parseResizes(*resizeArg)
	if err != nil {
		fatal("bad -resize: %v", err)
	}
	sched, err := buildSchedule(demands, sc)
	if err != nil {
		fatal("bad scenario: %v", err)
	}
	if sched != nil {
		// One frozen schedule serves every run: the generative families
		// memoize their sample paths (not safe for the concurrent jobs
		// below), so pre-sample once over the shared horizon. All
		// families are deterministic functions of (parameters, round),
		// so the snapshot equals what any fresh instance would generate.
		frozen, err := scenario.Freeze(sched, uint64(*rounds)+1)
		if err != nil {
			fatal("bad scenario: %v", err)
		}
		sched = frozen
	}

	p := jobParams{
		param: *param, n: *n, demands: demands, algorithm: *algorithm,
		gamma: *gamma, epsilon: *epsilon, gammaStar: *gammaStar,
		rounds: *rounds, repeat: *repeat, seed: *seed,
		resizes: resizes, sched: sched, family: sc.family,
	}
	if *dumpJobs != "" {
		if err := writeJobsFile(*dumpJobs, strings.Split(*valuesArg, ","), p); err != nil {
			fatal("%v", err)
		}
		return
	}
	if err := runSweep(os.Stdout, strings.Split(*valuesArg, ","), p, *parallel, *aggregate); err != nil {
		fatal("%v", err)
	}
}

// runSweep expands the grid, executes it on the batch runner, and writes
// the CSV to out. The output is a pure function of (values, p,
// aggregate): the parallel worker count never changes a byte.
func runSweep(out io.Writer, values []string, p jobParams, parallel int, aggregate bool) error {
	jobs, err := buildJobs(values, p)
	if err != nil {
		return err
	}
	return sweeprun.WriteCSV(out, jobs, sweeprun.Options{Workers: parallel},
		sweeprun.CSVOptions{Aggregate: aggregate, Repeat: p.repeat})
}

// writeJobsFile serializes the grid the flags resolve to as a wire
// sweep document ("-" = stdout). The file replays through -jobs, POST
// /v1/sweeps, or any other consumer of the versioned wire format.
// Alongside the document (on stderr, so the document bytes stay pure)
// it prints each job's two canonical identities — the syntactic hash
// of the spelled document and the semantic hash of its behavioral
// normal form — plus how many distinct behaviors the grid collapses to
// under semantic hashing: the cache/partition key space a service or
// grid coordinator would see for this grid.
func writeJobsFile(path string, values []string, p jobParams) error {
	jobs, err := buildJobs(values, p)
	if err != nil {
		return err
	}
	sweep, err := wire.FromJobs(jobs)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := wire.EncodeSweep(out, sweep); err != nil {
		return err
	}
	return writeJobHashes(os.Stderr, sweep.Jobs)
}

// writeJobHashes prints the per-job identity table -dump-jobs emits on
// stderr: one line per job with both hashes, then the alias-collapse
// summary (distinct semantic keys vs. job count).
func writeJobHashes(w io.Writer, jobs []wire.Job) error {
	distinct := make(map[string]bool)
	for i, j := range jobs {
		syn, err := wire.JobHash(j)
		if err != nil {
			return fmt.Errorf("jobs[%d]: %w", i, err)
		}
		sem, err := wire.SemanticHash(j)
		if err != nil {
			return fmt.Errorf("jobs[%d]: %w", i, err)
		}
		distinct[sem] = true
		fmt.Fprintf(w, "# job %d syntactic %s semantic %s\n", i, syn, sem)
	}
	fmt.Fprintf(w, "# %d jobs, %d distinct behaviors under semantic hashing\n",
		len(jobs), len(distinct))
	return nil
}

// replayJobs decodes a serialized grid and runs it through the exact
// same codec and CSV renderer as a flag-built sweep.
func replayJobs(out io.Writer, path string, parallel int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sweep, err := wire.DecodeSweep(f)
	if err != nil {
		return err
	}
	jobs, err := wire.ToJobs(sweep)
	if err != nil {
		return err
	}
	return sweeprun.WriteCSV(out, jobs, sweeprun.Options{Workers: parallel}, sweeprun.CSVOptions{})
}

// jobParams carries the resolved base configuration of a sweep grid.
type jobParams struct {
	param     string
	n         int
	demands   []int
	algorithm string
	gamma     float64
	epsilon   float64
	gammaStar float64
	rounds    int
	repeat    int
	seed      uint64
	resizes   []taskalloc.SizeChange
	sched     demand.Schedule
	family    string
}

// buildJobs expands the (value × seed) grid into fully-resolved sweeprun
// jobs, in the deterministic order the CSV rows are emitted in.
func buildJobs(values []string, p jobParams) ([]sweeprun.Job, error) {
	var jobs []sweeprun.Job
	for _, raw := range values {
		raw = strings.TrimSpace(raw)
		for rep := 0; rep < p.repeat; rep++ {
			cfg := taskalloc.Config{
				Ants:        p.n,
				Gamma:       p.gamma,
				Epsilon:     p.epsilon,
				Noise:       taskalloc.SigmoidNoise(p.gammaStar),
				Seed:        p.seed + uint64(rep),
				BurnIn:      uint64(p.rounds) / 2,
				Shards:      1,
				SizeChanges: p.resizes,
			}
			if p.sched != nil {
				cfg.Demand = p.sched
			} else {
				cfg.Demands = p.demands
			}
			alg, err := taskalloc.ParseAlgorithm(p.algorithm)
			if err != nil {
				return nil, err
			}
			cfg.Algorithm = alg

			switch p.param {
			case "gamma":
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("bad value %q: %v", raw, err)
				}
				cfg.Gamma = v
			case "epsilon":
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("bad value %q: %v", raw, err)
				}
				cfg.Epsilon = v
			case "gammaStar":
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("bad value %q: %v", raw, err)
				}
				cfg.Noise = taskalloc.SigmoidNoise(v)
			case "n":
				v, err := strconv.Atoi(raw)
				if err != nil {
					return nil, fmt.Errorf("bad value %q: %v", raw, err)
				}
				cfg.Ants = v
			case "shards":
				v, err := strconv.Atoi(raw)
				if err != nil {
					return nil, fmt.Errorf("bad value %q: %v", raw, err)
				}
				cfg.Shards = v
			default:
				return nil, fmt.Errorf("unknown -param %q", p.param)
			}

			jobs = append(jobs, sweeprun.Job{
				Meta:   []string{p.param, raw, p.family, fmt.Sprint(cfg.Seed)},
				Config: cfg,
				Rounds: p.rounds,
			})
		}
	}
	return jobs, nil
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
