package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"taskalloc"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
	"taskalloc/internal/stats"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// The per-layer ledger. It is measured from outside the program, in
// two ways:
//
//   - /v1/metrics deltas of the servers the traced loop ran against,
//     taken before and after that loop (stage histograms, cache and
//     store counters, coordinator scheduling counters);
//   - timed calls into each layer's public functions on a sample of the
//     workload's own documents, re-executed in isolation after the loop:
//     taskalloc.New+Run (colony), sweeprun.Stream, the wire codec and
//     hashes, a fresh durable backend, and a coordinator.
//
// Counts and ratios read 0 where the workload leaves a layer idle
// (store counters on memory-only servers). Every time is measured on
// every workload: a stage the loop never enters (journal_append on
// memory-only servers) and the reopen time are read from the ledger's
// own durable backend instead, and gridcoord times come from an
// isolated three-backend fleet where the workload has no coordinator.
//
// The end-to-end metric each layer metric should move, and where:
//
//	colony.*                        mant_rounds_per_s, bisect_p50_ms on durable-reuse; nothing on grid-hetero
//	sweeprun.*                      mant_rounds_per_s on durable-reuse
//	wire.*                          request_p50_ms on durable-reuse (its median request is a hit)
//	simserver stages, serving_self  request_p50_ms on durable-reuse; queue_wait: request_p90_ms on durable-reuse
//	simserver hit/reuse ratios      session_p50_ms, cells_per_s on durable-reuse
//	store.*                         session_p50_ms on durable-reuse
//	gridcoord overhead, subrequests first_result_p50_ms on grid-hetero
//	gridcoord steals, share, span   request_p50_ms on grid-hetero; retries: failed requests
//	bisect.*                        bisect_p50_ms on durable-reuse

// loopDeltas is the /v1/metrics activity of one timed loop.
type loopDeltas struct {
	backends scrape // summed over the loop's simserve instances
	coord    scrape // the loop's coordinator; nil without one
	slow     int    // the coordinator's slowest backend (fleet.slowIndex)
}

// beginDeltas starts tracking the loop's servers; the returned function
// ends it.
func (e *env) beginDeltas(ctx context.Context, hc *http.Client) (func() (loopDeltas, error), error) {
	if e.grid != nil {
		base, err := e.grid.beginDelta(ctx, hc)
		if err != nil {
			return nil, err
		}
		return func() (loopDeltas, error) {
			b, c, err := e.grid.endDelta(ctx, hc, base)
			return loopDeltas{backends: b, coord: c, slow: e.grid.slowIndex()}, err
		}, nil
	}
	if err := e.direct.beginDelta(ctx); err != nil {
		return nil, err
	}
	return func() (loopDeltas, error) {
		b, err := e.direct.endDelta(ctx)
		return loopDeltas{backends: b}, err
	}, nil
}

// ledgerInputs is the sample the ledger re-executes: grids the timed
// loop would send (warm), one grid of the same shape no server has seen
// (cold), all generated from the workload seed.
type ledgerInputs struct {
	warm []wire.Sweep
	cold wire.Sweep
}

func ledgerSample(w *workload, seed uint64) ledgerInputs {
	warm := sweepsOf(w.session(seed, ledgerIndex))
	if len(warm) > 2 {
		warm = warm[:2]
	}
	return ledgerInputs{warm: warm, cold: sweepsOf(w.session(seed, ledgerIndex+1))[0]}
}

// runLedger re-executes the sample through every layer and assembles
// the per-layer metrics, combining them with the traced loop's record
// and /v1/metrics deltas.
func (e *env) runLedger(ctx context.Context, tr *tracer, loop *loopRecord, deltas loopDeltas) (map[string]metric, error) {
	root := tr.start("ledger", nil, obs.NewID())
	defer root.end()
	in := ledgerSample(e.w, e.seed)
	m := map[string]metric{}

	jobSecs, colonyWarm, err := ledgerColony(tr, root, in, m)
	if err != nil {
		return nil, err
	}
	if err := ledgerSweeprun(tr, root, in.warm, colonyWarm, m); err != nil {
		return nil, err
	}
	if err := ledgerWire(tr, root, in.warm, m); err != nil {
		return nil, err
	}
	dir, err := e.ledgerDirect(ctx, tr, root, in.warm)
	if err != nil {
		return nil, fmt.Errorf("ledger direct backend: %w", err)
	}
	gd, err := e.ledgerCoordinator(ctx, tr, root, in, dir, jobSecs[len(jobSecs)-1], m)
	if err != nil {
		return nil, fmt.Errorf("ledger coordinator: %w", err)
	}
	if deltas.coord != nil {
		gd = deltas // the loop's own fleet
	}
	loopLayers(m, loop, deltas, dir, gd)
	return m, nil
}

// ledgerColony times taskalloc.New+Run+Report on every sample job,
// serially, with allocation counts from runtime.MemStats. It repeats
// the sample until at least 100ms of engine time accumulates and
// returns the mean seconds per job (per document) and the warm
// documents' total.
func ledgerColony(tr *tracer, parent *span, in ledgerInputs, m map[string]metric) ([][]float64, float64, error) {
	sp := tr.start("ledger.taskalloc", parent, "")
	defer sp.end()
	docs := append(append([]wire.Sweep(nil), in.warm...), in.cold)
	jobSecs := make([][]float64, len(docs))
	var (
		total, work   float64
		allocs, bytes uint64
		jobs, passes  int
		m0, m1        runtime.MemStats
	)
	for passes = 0; passes == 0 || (total < 0.1 && passes < 50); passes++ {
		for d, doc := range docs {
			cfgs, err := wire.ToJobs(doc)
			if err != nil {
				return nil, 0, err
			}
			if jobSecs[d] == nil {
				jobSecs[d] = make([]float64, len(cfgs))
			}
			for k, j := range cfgs {
				js := tr.start("taskalloc.run", sp, "")
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				sim, err := taskalloc.New(j.Config)
				if err != nil {
					return nil, 0, err
				}
				sim.Run(j.Rounds, nil)
				_ = sim.Report()
				sim.Close()
				dt := time.Since(t0).Seconds()
				runtime.ReadMemStats(&m1)
				js.end()
				jobSecs[d][k] += dt
				total += dt
				work += float64(j.Config.Ants) * float64(j.Rounds)
				allocs += m1.Mallocs - m0.Mallocs
				bytes += m1.TotalAlloc - m0.TotalAlloc
				jobs++
			}
		}
	}
	var warm float64
	for d := range jobSecs {
		for k := range jobSecs[d] {
			jobSecs[d][k] /= float64(passes)
			if d < len(in.warm) {
				warm += jobSecs[d][k]
			}
		}
	}
	m["colony.ns_per_ant_round"] = metric{Value: total / work * 1e9, Unit: "ns", n: jobs}
	m["colony.allocs_per_job"] = metric{Value: float64(allocs) / float64(jobs), Unit: "count", n: jobs}
	m["colony.bytes_per_job"] = metric{Value: float64(bytes) / float64(jobs), Unit: "B", n: jobs}
	return jobSecs, warm, nil
}

// ledgerSweeprun streams the warm sample through sweeprun at
// GOMAXPROCS workers: busy_fraction is engine time over worker-time
// available, overhead_pct the wall time beyond an even split of the
// colony ledger's serial time.
func ledgerSweeprun(tr *tracer, parent *span, warm []wire.Sweep, colonyWarm float64, m map[string]metric) error {
	sp := tr.start("ledger.sweeprun", parent, "")
	defer sp.end()
	var jobs []sweeprun.Job
	for _, doc := range warm {
		js, err := wire.ToJobs(doc)
		if err != nil {
			return err
		}
		jobs = append(jobs, js...)
	}
	workers := min(nproc(), len(jobs))
	var (
		mu         sync.Mutex
		busy, wall float64
		passes     int
	)
	opts := sweeprun.Options{Workers: nproc(), OnTiming: func(t sweeprun.Timing) {
		mu.Lock()
		busy += t.Run.Seconds()
		mu.Unlock()
	}}
	for passes = 0; passes == 0 || (wall < 0.1 && passes < 50); passes++ {
		ps := tr.start("sweeprun.stream", sp, "")
		t0 := time.Now()
		sweeprun.Stream(jobs, opts, func(sweeprun.Result) {})
		wall += time.Since(t0).Seconds()
		ps.end()
	}
	perPass := wall / float64(passes)
	even := colonyWarm / float64(workers)
	m["sweeprun.busy_fraction"] = metric{Value: busy / (wall * float64(workers)), Unit: "ratio", n: passes}
	m["sweeprun.overhead_pct"] = metric{Value: 100 * (perPass - even) / even, Unit: "%", n: passes}
	return nil
}

// ledgerWire times the wire codec on the warm sample: decoding the
// document, and the syntactic and semantic job hashes, per job.
func ledgerWire(tr *tracer, parent *span, warm []wire.Sweep, m map[string]metric) error {
	sp := tr.start("ledger.wire", parent, "")
	defer sp.end()
	const floor = 30 * time.Millisecond
	timeIt := func(name string, perRep int, fn func() error) (float64, error) {
		s := tr.start(name, sp, "")
		defer s.end()
		var reps int
		t0 := time.Now()
		for reps = 0; reps == 0 || time.Since(t0) < floor; reps++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(reps*perRep), nil
	}
	var dec, syn, sem float64
	var jobs int
	for _, doc := range warm {
		body, err := wire.MarshalSweep(doc)
		if err != nil {
			return err
		}
		n := len(doc.Jobs)
		d, err := timeIt("wire.decode", n, func() error {
			_, err := wire.DecodeSweep(bytes.NewReader(body))
			return err
		})
		if err != nil {
			return err
		}
		y, err := timeIt("wire.syntactic_hash", n, func() error {
			for _, j := range doc.Jobs {
				if _, err := wire.JobHash(j); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s, err := timeIt("wire.semantic_hash", n, func() error {
			for _, j := range doc.Jobs {
				if _, err := wire.SemanticHash(j); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		dec += d * float64(n)
		syn += y * float64(n)
		sem += s * float64(n)
		jobs += n
	}
	m["wire.decode_us_per_job"] = metric{Value: dec / float64(jobs), Unit: "us", n: jobs}
	m["wire.syntactic_hash_us_per_job"] = metric{Value: syn / float64(jobs), Unit: "us", n: jobs}
	m["wire.semantic_hash_us_per_job"] = metric{Value: sem / float64(jobs), Unit: "us", n: jobs}
	return nil
}

// directResult is what the ledger's isolated backend measured.
type directResult struct {
	warmMs []float64 // round trips of warm (cache-hit) submissions
	cold   scrape    // /v1/metrics delta over the cold pass
	selfMs float64   // mean warm round trip minus its server stages
	reopen []float64 // simserver.Open on its data directory, ms
}

const ledgerReps = 5

// ledgerDirect posts the warm sample to a fresh durable backend (sync
// off) — once cold, then ledgerReps times warm — and restarts it three
// times.
func (e *env) ledgerDirect(ctx context.Context, tr *tracer, parent *span, warm []wire.Sweep) (*directResult, error) {
	sp := tr.start("ledger.backend", parent, "")
	defer sp.end()
	srv, err := startServer(simserver.Options{DataDir: filepath.Join(e.dir, "ledger-direct")})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	d := newDriver(srv.url)
	defer d.close()
	post := func(name string, doc wire.Sweep) (float64, error) { return postMs(ctx, tr, sp, d, name, doc) }

	res := &directResult{}
	if err := srv.beginDelta(ctx); err != nil {
		return nil, err
	}
	for _, doc := range warm {
		if _, err := post("backend.cold", doc); err != nil {
			return nil, err
		}
	}
	if res.cold, err = srv.endDelta(ctx); err != nil {
		return nil, err
	}
	if err := srv.beginDelta(ctx); err != nil {
		return nil, err
	}
	for r := 0; r < ledgerReps; r++ {
		for _, doc := range warm {
			ms, err := post("backend.warm", doc)
			if err != nil {
				return nil, err
			}
			res.warmMs = append(res.warmMs, ms)
		}
	}
	wd, err := srv.endDelta(ctx)
	if err != nil {
		return nil, err
	}
	var rtt float64
	for _, v := range res.warmMs {
		rtt += v
	}
	stages := wd.sum("taskalloc_stage_seconds_sum", nil) * 1e3
	res.selfMs = (rtt - stages) / float64(len(res.warmMs))
	for i := 0; i < 3; i++ {
		s := tr.start("backend.reopen", sp, "")
		open, err := srv.restart(ctx)
		s.end()
		if err != nil {
			return nil, err
		}
		res.reopen = append(res.reopen, float64(open)/float64(time.Millisecond))
	}
	return res, nil
}

// ledgerCoordinator posts the warm sample through a coordinator — the
// loop's own, or an isolated three-backend fleet when the workload has
// none — and one cold grid. It returns the isolated fleet's deltas (the
// zero value when it used the loop's coordinator).
func (e *env) ledgerCoordinator(ctx context.Context, tr *tracer, parent *span, in ledgerInputs,
	dir *directResult, coldJobSecs []float64, m map[string]metric) (loopDeltas, error) {
	sp := tr.start("ledger.coordinator", parent, "")
	defer sp.end()
	f, isolated := e.grid, e.grid == nil
	if isolated {
		var err error
		if f, err = startFleet(uniformDelays); err != nil {
			return loopDeltas{}, err
		}
		defer f.close()
	}
	d := newDriver(f.coord.url)
	defer d.close()
	var base scrape
	if isolated {
		var err error
		if base, err = f.beginDelta(ctx, d.hc); err != nil {
			return loopDeltas{}, err
		}
	}
	post := func(name string, doc wire.Sweep) (float64, error) { return postMs(ctx, tr, sp, d, name, doc) }
	for _, doc := range in.warm {
		if _, err := post("coordinator.prewarm", doc); err != nil {
			return loopDeltas{}, err
		}
	}
	var warmMs []float64
	for r := 0; r < ledgerReps; r++ {
		for _, doc := range in.warm {
			ms, err := post("coordinator.warm", doc)
			if err != nil {
				return loopDeltas{}, err
			}
			warmMs = append(warmMs, ms)
		}
	}
	makespan, err := post("coordinator.cold", in.cold)
	if err != nil {
		return loopDeltas{}, err
	}
	ideal := idealMakespanMs(coldJobSecs, f.delays)
	m["gridcoord.overhead_ms"] = metric{Value: stats.Median(warmMs) - stats.Median(dir.warmMs), Unit: "ms", n: len(warmMs)}
	m["gridcoord.makespan_over_ideal"] = metric{Value: makespan / ideal, Unit: "ratio", n: 1}
	if !isolated {
		return loopDeltas{}, nil
	}
	b, c, err := f.endDelta(ctx, d.hc, base)
	return loopDeltas{backends: b, coord: c, slow: f.slowIndex()}, err
}

// postMs submits doc through d under a span and returns the round trip
// in milliseconds.
func postMs(ctx context.Context, tr *tracer, parent *span, d *driver, name string, doc wire.Sweep) (float64, error) {
	s := tr.start(name, parent, "")
	o := d.do(ctx, request{kind: kindSweep, sweep: doc}, nil)
	s.end()
	return float64(o.rec.lat) / float64(time.Millisecond), o.err
}

// idealMakespanMs is the shortest time a fleet could deliver the jobs
// in: bounded by the engine work spread over every CPU, and by the
// fleet's job rate when each backend runs GOMAXPROCS jobs at a time and
// pays its JobDelay per job.
func idealMakespanMs(jobSecs []float64, delays []time.Duration) float64 {
	var sum float64
	for _, s := range jobSecs {
		sum += s
	}
	mean := sum / float64(len(jobSecs))
	var rate float64
	for _, d := range delays {
		rate += float64(nproc()) / (d.Seconds() + mean)
	}
	return max(sum/float64(nproc()), float64(len(jobSecs))/rate) * 1e3
}

var stageNames = []string{"admission", "cache_lookup", "queue_wait", "engine_run", "render", "journal_append"}

// loopLayers derives the layer metrics the traced loop's deltas and
// record carry; gd is the fleet the gridcoord counts come from.
func loopLayers(m map[string]metric, loop *loopRecord, d loopDeltas, dir *directResult, gd loopDeltas) {
	t := totals(loop)
	b := d.backends
	for _, st := range stageNames {
		mean, n := b.histMean("taskalloc_stage_seconds", map[string]string{"stage": st})
		if n == 0 {
			mean, n = dir.cold.histMean("taskalloc_stage_seconds", map[string]string{"stage": st})
		}
		m["simserver."+st+"_ms"] = metric{Value: mean * 1e3, Unit: "ms", n: int(n)}
		m["simserver."+st+"_ms.count"] = metric{Value: n, Unit: "count"}
	}
	m["simserver.serving_self_ms"] = metric{Value: dir.selfMs, Unit: "ms", n: len(dir.warmMs)}

	sweepReqs := b.sum("taskalloc_sweep_requests_total", nil)
	m["simserver.sweep_hit_ratio"] = metric{Value: ratio(b.sum("taskalloc_sweep_requests_total", map[string]string{"disposition": "hit"}), sweepReqs), Unit: "ratio"}
	engineRuns := b.sum("taskalloc_stage_seconds_count", map[string]string{"stage": "engine_run"})
	cells := float64(t.cells)
	m["simserver.job_reuse_ratio"] = metric{Value: 1 - ratio(engineRuns, cells), Unit: "ratio"}

	m["store.appends_per_cell"] = metric{Value: ratio(b.sum("taskalloc_store_appends_total", nil), cells), Unit: "count"}
	m["store.journal_bytes_per_cell"] = metric{Value: ratio(b.sum("taskalloc_store_bytes", nil), cells), Unit: "B"}
	m["store.blob_puts_per_job"] = metric{Value: ratio(b.sum("taskalloc_blob_puts_total", nil), engineRuns), Unit: "count"}
	diskHits := b.sum("taskalloc_disk_sweep_hits_total", nil) + b.sum("taskalloc_job_cache_disk_hits_total", nil)
	m["store.disk_hit_ratio"] = metric{Value: ratio(diskHits, float64(t.sweeps+t.evals)), Unit: "ratio"}
	reopen := dir.reopen
	if len(loop.reopens) > 0 {
		reopen = millis(loop.reopens)
	}
	m["store.reopen_ms"] = metric{Value: stats.Median(reopen), Unit: "ms", n: len(reopen)}

	g := gd.coord
	reqs := g.sum("taskalloc_grid_sweeps_total", nil) + g.sum("taskalloc_grid_bisects_total", nil)
	var subs float64
	for _, s := range gd.backends {
		if s.name == "taskalloc_http_requests_total" && strings.HasPrefix(s.labels["route"], "POST ") {
			subs += s.value
		}
	}
	m["gridcoord.subrequests_per_request"] = metric{Value: ratio(subs, reqs), Unit: "count"}
	m["gridcoord.steals_per_request"] = metric{Value: ratio(g.sum("taskalloc_grid_steals_total", nil), reqs), Unit: "count"}
	m["gridcoord.retries_per_request"] = metric{Value: ratio(g.sum("taskalloc_grid_jobs_retried_total", nil), reqs), Unit: "count"}
	delivered := g.sum("taskalloc_grid_jobs_delivered_total", nil)
	m["gridcoord.slow_backend_job_share"] = metric{
		Value: ratio(g.sum("taskalloc_grid_jobs_delivered_total", map[string]string{"backend": strconv.Itoa(gd.slow)}), delivered),
		Unit:  "ratio",
	}

	m["bisect.evals_per_request"] = metric{Value: ratio(float64(t.evals), float64(t.bisects)), Unit: "count", n: t.bisects}
	m["bisect.cache_hit_ratio"] = metric{Value: ratio(float64(t.hits), float64(t.evals)), Unit: "ratio"}
	m["wire.response_bytes_per_cell"] = metric{Value: ratio(float64(t.bytes), float64(t.sweepCells)), Unit: "B"}
}
