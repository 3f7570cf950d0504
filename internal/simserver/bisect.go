package simserver

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"taskalloc/internal/bisect"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Adaptive γ-bisection (POST /v1/bisect): the server refines a γ
// interval by repeated midpoint evaluation until every segment's regret
// band — |ΔAvgRegret| across its endpoints — is at most the requested
// target, or the evaluation budget runs out. The refinement loop itself
// lives in internal/bisect (shared with the grid coordinator's sharded
// bisect); this file supplies its evaluator: each evaluated cell is an
// ordinary job (the request's template with Gamma overridden), keyed by
// its behavioral hash (wire.SemanticHash) in the job tier it shares with
// sweeps (jobtier.go), so a repeat bisection — or an overlapping one,
// one whose template spells the same behavior differently, or one over
// γ points a sweep covered — is served almost entirely from cache. The
// rendered cell still carries the syntactic wire.JobHash, so response
// bytes are unchanged by the cache's keying. Midpoints of all over-target
// segments are evaluated as one sweeprun batch per refinement round,
// through the same shared pool and admission gate as sweeps.

func (s *Server) handleBisect(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()

	workers := s.opts.Workers
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad workers %q", v)
			return
		}
		if n > maxWorkersPerRequest {
			n = maxWorkersPerRequest
		}
		workers = n
	}

	req, err := wire.DecodeBisectRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "%v", err)
		return
	}
	// Admission: the same per-cell bounds as POST /v1/sweeps, plus the
	// evaluation budget (each evaluation is one cell of compute).
	if req.Job.Rounds > s.opts.MaxCellRounds {
		httpError(w, http.StatusBadRequest,
			"job rounds %d over limit %d", req.Job.Rounds, s.opts.MaxCellRounds)
		return
	}
	if req.Job.Config.Ants > s.opts.MaxCellAnts {
		httpError(w, http.StatusBadRequest,
			"job ants %d over limit %d", req.Job.Config.Ants, s.opts.MaxCellAnts)
		return
	}
	if req.MaxEvals > s.opts.MaxBisectEvals {
		httpError(w, http.StatusBadRequest,
			"max_evals %d over limit %d", req.MaxEvals, s.opts.MaxBisectEvals)
		return
	}
	// Hash the request AS SENT — before the server's MaxEvals default is
	// applied — so the response ID equals wire.SemanticBisectHash of the
	// submitted document (the ID a coordinator stamps on the same
	// search) regardless of this server's -max-bisect-evals. The
	// behavioral hash makes equivalent template spellings coalesce and
	// share one response ID.
	id, err := wire.SemanticBisectHash(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.MaxEvals == 0 {
		req.MaxEvals = s.opts.MaxBisectEvals
	}
	req.Job.Trajectory = false // bisect cells never stream trajectories

	resp, disposition, err := s.runBisectCoalesced(r, id, req, workers)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if resp == nil {
		return // waiter whose request context ended first
	}
	if disposition == "" {
		// We owned the execution: "hit" when every cell came from the
		// job cache (the whole search replayed), else "miss".
		disposition = "miss"
		if resp.Evals > 0 && resp.CacheHits == resp.Evals {
			disposition = "hit"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	_ = json.NewEncoder(w).Encode(resp)
}

// bisectFlight is one in-flight bisect execution identical concurrent
// requests coalesce onto (the sweep cache's coalescing, without the
// long-term retention — the job cache already makes a repeat cheap).
type bisectFlight struct {
	done chan struct{}
	resp wire.BisectResponse
	err  error
}

// runBisectCoalesced executes the search, coalescing concurrent
// equivalent requests (same semantic id) onto one execution — without
// it, a dashboard double-refresh doubles admission-gated compute. The
// returned disposition is "coalesced" for a waiter and "" for the
// owner (the handler classifies the owner's run from its cache-hit
// counts). The returned response is nil (with nil error) only when a
// waiter's request context ended before the owner finished. Completed
// flights are not retained: a later repeat re-runs the
// (job-cache-warm) search.
func (s *Server) runBisectCoalesced(r *http.Request, id string, req wire.BisectRequest, workers int) (*wire.BisectResponse, string, error) {
	s.mu.Lock()
	if f := s.bisectFlights[id]; f != nil {
		s.mu.Unlock()
		s.metrics.bisectCoalesced.Inc()
		select {
		case <-f.done:
		case <-r.Context().Done():
			return nil, "", nil
		}
		if f.err != nil {
			return nil, "", f.err
		}
		resp := f.resp
		return &resp, "coalesced", nil
	}
	f := &bisectFlight{done: make(chan struct{})}
	s.bisectFlights[id] = f
	s.mu.Unlock()

	f.resp, f.err = bisect.Run(req, s.bisectEvaluator(req, workers))
	f.resp.Version = wire.V1
	f.resp.ID = id
	s.mu.Lock()
	delete(s.bisectFlights, id)
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, "", f.err
	}
	resp := f.resp
	return &resp, "", nil
}

// bisectEvaluator returns the local evaluator for one search: one cell
// per γ, serving repeats from the job tier (keyed by the behavioral
// hash, so equivalent template spellings share entries) and running the
// misses as one sweeprun batch, written through to memory and disk.
// The rendered cell carries the syntactic JobHash unchanged. The shared
// refinement loop (internal/bisect) walks the same γ sequence every
// run, so a repeat request hits the cache on every cell.
func (s *Server) bisectEvaluator(req wire.BisectRequest, workers int) bisect.Evaluator {
	return func(gammas []float64) ([]wire.BisectCell, error) {
		type pending struct {
			cell int
			key  string
			job  sweeprun.Job
		}
		var (
			cells  []wire.BisectCell
			misses []pending
		)
		for _, g := range gammas {
			wj := req.Job
			cfg := wj.Config // value copy; Gamma override stays local
			cfg.Gamma = g
			wj.Config = cfg
			hash, err := wire.JobHash(wj)
			if err != nil {
				return nil, err
			}
			key, err := wire.SemanticHash(wj)
			if err != nil {
				return nil, err
			}
			cell := wire.BisectCell{Gamma: g, JobHash: hash}
			hit, ok := s.lookupJob(key)
			if ok {
				s.metrics.bisectJobHits.Inc()
				cell.Cached = true
				if hit.err != "" {
					cell.Err = hit.err
				} else {
					rep := hit.report
					cell.Report = &rep
				}
			} else {
				s.metrics.bisectJobMisses.Inc()
				job, err := wj.ToJob()
				if err != nil {
					return nil, err
				}
				misses = append(misses, pending{cell: len(cells), key: key, job: job})
			}
			cells = append(cells, cell)
		}
		if len(misses) == 0 {
			return cells, nil
		}
		jobs := make([]sweeprun.Job, len(misses))
		for i, p := range misses {
			jobs[i] = p.job
		}
		results := sweeprun.Stream(jobs, sweeprun.Options{
			Workers:  workers,
			Pool:     s.pool,
			Gate:     s.gate,
			OnTiming: s.observeJobTiming,
		}, func(sweeprun.Result) {
			if d := s.opts.JobDelay; d > 0 {
				// The same chaos/test hook as the sweep path: every
				// freshly computed cell costs at least d wall-clock.
				time.Sleep(d)
			}
		})
		computed := make([]jobResult, len(results))
		s.mu.Lock()
		for i, res := range results {
			c := &cells[misses[i].cell]
			var jr jobResult
			if res.Err != nil {
				c.Err = res.Err.Error()
				jr.err = c.Err
			} else {
				rep := res.Report
				c.Report = &rep
				jr.report = res.Report
			}
			s.storeJobLocked(misses[i].key, jr)
			computed[i] = jr
		}
		s.mu.Unlock()
		// Spill fresh results to the disk cache outside the lock (Put
		// does file IO); idempotent, so concurrent writers are safe.
		for i, p := range misses {
			s.jobBlobPut(p.key, computed[i])
		}
		return cells, nil
	}
}
