// Command simgrid is the multi-host grid coordinator front end: it
// shards a wire-format job grid across several simserve backends by
// canonical job-hash range — equal ranges, with idle backends stealing
// pending chunks from slow ones — merges the ordered result streams,
// and writes output byte-identical to the same sweep POSTed to a single
// backend. See internal/gridcoord for the partitioning, stealing,
// merge-order, and failure-handling contracts.
//
//	simgrid -backends http://h1:8080,http://h2:8080,http://h3:8080 -jobs grid.json
//	simgrid -backends ... -jobs grid.json -format csv
//	simgrid -backends ... -bisect request.json
//	simgrid -backends ... -serve :8090
//
// -jobs/-bisect read "-" as stdin. The merged stream (or the bisect
// response JSON) goes to stdout; progress and retry notices go to
// stderr with -v. A job whose attempt budget is exhausted (or a
// backend rejection) fails the whole run: partial output would
// silently diverge from a single-host run.
//
// -serve runs the coordinator as a service instead: POST /v1/sweeps
// streams merged grids, POST /v1/bisect runs the sharded refinement
// search, GET /v1/sweeps/{id} fans the summary query out to the
// backends and fuses the answers.
//
// Observability: each run mints a trace ID sent to every backend as
// X-Trace-Id (printed by -v; grep it in the backends' access logs).
// -metrics-addr serves the coordinator's own GET /v1/metrics and
// -pprof-addr serves net/http/pprof — both announce their bound
// address on stderr, keeping stdout byte-clean for the merged stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"taskalloc/internal/gridcoord"
	"taskalloc/internal/obs"
	"taskalloc/internal/wire"
)

func main() {
	var (
		backendsArg  = flag.String("backends", "", "comma-separated simserve base URLs (required)")
		jobsFile     = flag.String("jobs", "", "wire-format sweep document to shard (\"-\" = stdin)")
		bisectFile   = flag.String("bisect", "", "wire-format bisect request to run sharded (\"-\" = stdin)")
		serveAddr    = flag.String("serve", "", "run as an HTTP service on this address instead of a one-shot CLI run")
		format       = flag.String("format", "ndjson", "merged output format: ndjson | csv")
		workers      = flag.Int("workers", 0, "per-backend ?workers override (0 = backend default)")
		attempts     = flag.Int("attempts", 3, "per-job attempt budget across backend failures")
		stealChunk   = flag.Int("steal-chunk", 0, "work-stealing chunk size in jobs (0 = auto, negative = static ranges, no stealing)")
		stallTimeout = flag.Duration("stall-timeout", 0, "abort a backend stream delivering no result for this long (0 = disabled)")
		verbose      = flag.Bool("v", false, "log progress, steals, backend losses, and retries to stderr")
		token        = flag.String("token", "", "tenant bearer token sent to every backend (empty for open backends; $SIMGRID_TOKEN overrides)")
		metricsAdr   = flag.String("metrics-addr", "", "serve the coordinator's GET /v1/metrics on this address (empty = disabled)")
		pprofAdr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	if env := os.Getenv("SIMGRID_TOKEN"); env != "" {
		*token = env
	}

	backends := splitNonEmpty(*backendsArg)
	if len(backends) == 0 {
		fatal("need -backends (comma-separated simserve base URLs)")
	}
	modes := 0
	for _, set := range []bool{*jobsFile != "", *bisectFile != "", *serveAddr != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fatal("need exactly one of -jobs, -bisect, or -serve")
	}

	opts := gridcoord.Options{
		Backends:     backends,
		Workers:      *workers,
		Attempts:     *attempts,
		StealChunk:   *stealChunk,
		StallTimeout: *stallTimeout,
		Token:        *token,
	}
	if *verbose {
		opts.Observe = logEvent
	}
	if *metricsAdr != "" || *serveAddr != "" {
		opts.Registry = obs.NewRegistry()
	}
	coord, err := gridcoord.New(opts)
	if err != nil {
		fatal("%v", err)
	}
	// Both side listeners announce on stderr: stdout is the merged
	// result stream and must stay byte-identical to a single-host run.
	if *metricsAdr != "" {
		mln, err := net.Listen("tcp", *metricsAdr)
		if err != nil {
			fatal("metrics: %v", err)
		}
		mm := http.NewServeMux()
		mm.Handle("GET /v1/metrics", opts.Registry)
		fmt.Fprintf(os.Stderr, "simgrid: metrics listening on %s\n", mln.Addr())
		go func() { _ = http.Serve(mln, mm) }()
	}
	if *pprofAdr != "" {
		pln, err := net.Listen("tcp", *pprofAdr)
		if err != nil {
			fatal("pprof: %v", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "simgrid: pprof listening on %s\n", pln.Addr())
		go func() { _ = http.Serve(pln, pm) }()
	}
	ctx := context.Background()

	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fatal("%v", err)
		}
		// The bound address goes to stdout (like cmd/simserve), so a
		// parent process can parse it back under :0.
		fmt.Printf("listening on %s\n", ln.Addr())
		if err := http.Serve(ln, coord.Handler()); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *bisectFile != "" {
		req, err := readBisect(*bisectFile)
		if err != nil {
			fatal("%v", err)
		}
		resp, err := coord.Bisect(ctx, req)
		if err != nil {
			fatal("%v", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatal("%v", err)
		}
		return
	}

	sweep, err := readSweep(*jobsFile)
	if err != nil {
		fatal("%v", err)
	}
	stats, err := coord.Run(ctx, sweep, gridcoord.Format(*format), os.Stdout)
	if err != nil {
		fatal("%v", err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "simgrid: %d jobs over %d backends %v, delivered %v; %d stolen, %d retried, %d backends lost; trace %s\n",
			len(sweep.Jobs), len(backends), stats.JobsPerBackend, stats.Delivered,
			stats.Steals, stats.Retried, stats.BackendsLost, stats.TraceID)
	}
}

// splitNonEmpty splits a comma list, dropping empty entries.
func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// open opens path, with "-" meaning stdin.
func open(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func readSweep(path string) (wire.Sweep, error) {
	f, err := open(path)
	if err != nil {
		return wire.Sweep{}, err
	}
	defer f.Close()
	return wire.DecodeSweep(f)
}

func readBisect(path string) (wire.BisectRequest, error) {
	f, err := open(path)
	if err != nil {
		return wire.BisectRequest{}, err
	}
	defer f.Close()
	return wire.DecodeBisectRequest(f)
}

func logEvent(ev gridcoord.Event) {
	switch ev.Kind {
	case gridcoord.EventSteal:
		fmt.Fprintf(os.Stderr, "simgrid: backend %d stole %d jobs from backend %d\n",
			ev.Backend, ev.Jobs, ev.From)
	case gridcoord.EventBackendLost:
		fmt.Fprintf(os.Stderr, "simgrid: backend %d lost with %d jobs undelivered: %v\n",
			ev.Backend, ev.Jobs, ev.Err)
	case gridcoord.EventRedispatch:
		fmt.Fprintf(os.Stderr, "simgrid: re-dispatched %d jobs to backend %d\n", ev.Jobs, ev.Backend)
	case gridcoord.EventBackendDone:
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "simgrid: backend %d stream ended after %d jobs in %v: %v\n",
				ev.Backend, ev.Jobs, ev.Elapsed.Round(time.Millisecond), ev.Err)
		} else {
			fmt.Fprintf(os.Stderr, "simgrid: backend %d done: %d jobs in %v\n",
				ev.Backend, ev.Jobs, ev.Elapsed.Round(time.Millisecond))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simgrid: "+format+"\n", args...)
	os.Exit(1)
}
