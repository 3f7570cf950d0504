// Command layerbench is the repository's benchmark. It boots the
// simulation service (internal/simserver) and the grid coordinator
// (internal/gridcoord) in-process, configured as cmd/simserve and
// cmd/simgrid -serve configure them, drives them closed-loop through
// the typed client (internal/simserver/client) with requests generated
// from the workload seed, checks every response, and prints each
// end-to-end metric by name with its unit. A traced run (--trace 1)
// adds the per-layer ledger: spans around every client request and
// around isolated re-executions of a sample of the workload's
// documents through each layer's public functions, plus /v1/metrics
// deltas of the servers.
//
// Run it from the repository root:
//
//	bash layerbench/run.sh --workload durable-reuse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) named in BENCHMARK.json. Every line before it is for
// people: the host, each metric with its sample count, error_rate, and
// in a traced run the untraced and traced end-to-end medians side by
// side. A result record (and, traced, a spans file) is written under
// .bench_out/. The exit code is non-zero when any request failed or
// any response failed its correctness check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"taskalloc/internal/stats"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // per timed loop (a traced run splits it in two)
	trace    bool
	setups   int // set-ups timed; setup_s is their median (5; 1 in tests)
	root     string
	workdir  string
	outdir   string
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed generates the same requests")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need --seconds >= 1 and --trace 0|1"))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		setups:   5,
		root:     root,
		workdir:  filepath.Join(root, ".bench_build", "run"),
		outdir:   filepath.Join(root, ".bench_out"),
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
	os.Exit(2)
}

// run sets the workload up cfg.setups times (timing each and keeping
// the last), runs the timed loop(s), checks the samples, and returns
// the final result. Human-readable lines go to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	host := probeHost(cfg.root)
	fmt.Fprintf(out, "layerbench workload=%s seed=%d seconds=%g trace=%v clients=1 windows=%d\n",
		w.name, cfg.seed, cfg.measure.Seconds(), cfg.trace, windows)
	fmt.Fprintf(out, "host %s\n", host)

	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	var (
		e      *env
		setups []float64
		n      = cfg.setups
	)
	if cfg.trace {
		n = 1 // setup_s is not a per-layer metric
	}
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, cfg.seed, filepath.Join(dir, fmt.Sprint(i))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	res := &result{Metrics: map[string]metric{}}
	record := map[string]any{"workload": w.name, "seed": cfg.seed, "trace": cfg.trace, "host": host, "setup_s": setups}
	var loops []*loopRecord
	if !cfg.trace {
		rec := e.loop(ctx, cfg.measure, nil)
		e.verifySamples(ctx, rec)
		loops = append(loops, rec)
		res.Metrics = endToEnd(rec)
		res.Metrics["setup_s"] = metric{Value: stats.Median(setups), Unit: "s", n: len(setups)}
		res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB"}
		fmt.Fprintln(out, "end-to-end:")
		printMetrics(out, res.Metrics)
	} else {
		plain := e.loop(ctx, cfg.measure/2, nil)
		hc := newDriver(e.entry)
		end, err := e.beginDeltas(ctx, hc.hc)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced := e.loop(ctx, cfg.measure/2, tr)
		deltas, err := end()
		hc.close()
		if err != nil {
			return nil, err
		}
		e.verifySamples(ctx, plain)
		e.verifySamples(ctx, traced)
		loops = append(loops, plain, traced)
		if res.Metrics, err = e.runLedger(ctx, tr, traced, deltas); err != nil {
			return nil, err
		}
		printSideBySide(out, endToEnd(plain), endToEnd(traced))
		fmt.Fprintln(out, "per-layer:")
		printMetrics(out, res.Metrics)
		spans := tr.finish()
		names, self, count := selfByName(spans)
		fmt.Fprintln(out, "span self time:")
		for _, n := range names {
			fmt.Fprintf(out, "  %-28s %10.3f ms over %d spans\n", n, float64(self[n])/float64(time.Millisecond), count[n])
		}
		path := filepath.Join(cfg.outdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := writeFile(path, func(f io.Writer) error { return writeSpans(f, record, spans) }); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	for _, l := range loops {
		res.Attempted += len(l.reqs)
		res.Failed += l.failed
		for _, f := range l.failures {
			fmt.Fprintf(os.Stderr, "layerbench: FAIL %s\n", f)
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "layerbench: FAIL metric %s was not measured\n", k)
			res.Failed++
			v.Value = 0
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "error_rate %.6f (%d failed / %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	record["result"] = res
	record["samples"] = sampleCounts(res.Metrics)
	path := filepath.Join(cfg.outdir, fmt.Sprintf("result-%s-seed%d-trace%v.json", w.name, cfg.seed, cfg.trace))
	if err := writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(record)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

func sampleCounts(m map[string]metric) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		if v.n > 0 {
			out[k] = v.n
		}
	}
	return out
}

// printSideBySide shows the untraced and traced loops' end-to-end
// figures together, so tracing overhead is visible.
func printSideBySide(out io.Writer, plain, traced map[string]metric) {
	fmt.Fprintf(out, "end-to-end, untraced vs traced (tracing overhead):\n")
	for _, k := range sortedKeys(plain) {
		p, t := plain[k], traced[k]
		fmt.Fprintf(out, "  %-22s %12.4f %12.4f %-14s %+7.1f%%  (n=%d, %d)\n",
			k, p.Value, t.Value, p.Unit, 100*ratio(t.Value-p.Value, p.Value), p.n, t.n)
	}
}

func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
