package simserver

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

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
// segments are evaluated as one grid per refinement round, through the
// runner sweeps use (runCells): the same tier lookup, shared pool,
// admission gate, and JobDelay hook.

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
		httpError(w, wire.DecodeStatus(err), "%v", err)
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

// bisectEvaluator returns the local evaluator for one search. Each
// round's γ batch is a grid — one cell per γ, keyed by the behavioral
// hash, so equivalent template spellings share entries — produced by
// the sweeps' runner (runCells): repeats come from the job tier, the
// rest are decoded and run as one batch, and are written through to
// memory and disk. The rendered cell carries the syntactic JobHash
// unchanged. The shared refinement loop (internal/bisect) walks the
// same γ sequence every run, so a repeat request hits the cache on
// every cell and decodes nothing.
func (s *Server) bisectEvaluator(req wire.BisectRequest, workers int) bisect.Evaluator {
	return func(gammas []float64) ([]wire.BisectCell, error) {
		n := len(gammas)
		wjobs := make([]wire.Job, n)
		g := grid{
			jobs: make([]sweeprun.Job, n),
			recs: make([]*wire.TrajectoryRecorder, n),
			decode: func(idx []int) ([]sweeprun.Job, error) {
				sub := wire.Sweep{Jobs: make([]wire.Job, len(idx))}
				for k, i := range idx {
					sub.Jobs[k] = wjobs[i]
				}
				jobs, err := wire.ToJobs(sub)
				if err != nil {
					// Every cell is the template with γ overridden, and
					// no decode check reads γ: report the template's own
					// error, without ToJobs's jobs[k] prefix.
					if inner := errors.Unwrap(err); inner != nil {
						err = inner
					}
					return nil, err
				}
				return jobs, nil
			},
		}
		cells := make([]wire.BisectCell, n)
		for i, gamma := range gammas {
			wj := req.Job
			wj.Config.Gamma = gamma // wj is a copy; the override stays local
			hash, err := wire.JobHash(wj)
			if err != nil {
				return nil, err
			}
			wjobs[i] = wj
			g.jobs[i] = sweeprun.Job{Meta: wj.Meta, Rounds: wj.Rounds}
			cells[i] = wire.BisectCell{Gamma: gamma, JobHash: hash}
		}
		// One pass keys the round, so the template's schedule is
		// normalized once, not once per γ; with Trajectory off, each key
		// is the cell's SemanticHash.
		var err error
		if _, g.keys, err = wire.SemanticSweepKeys(wire.Sweep{Jobs: wjobs}); err != nil {
			return nil, err
		}
		var fresh []cell
		err = s.runCells(g, nil, s.metrics.bisectJobHits, s.metrics.bisectJobMisses, workers, func(i int, c cell, known bool) {
			cells[i].Cached = known
			if c.err != "" {
				cells[i].Err = c.err
			} else {
				rep := c.report
				cells[i].Report = &rep
			}
			if !known {
				fresh = append(fresh, c)
			}
		})
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		for _, c := range fresh {
			s.storeJobLocked(c.key, jobResult{report: c.report, err: c.err})
		}
		s.mu.Unlock()
		// Spill fresh results to the disk cache outside the lock (Put
		// does file IO); idempotent, so concurrent writers are safe.
		for _, c := range fresh {
			s.jobBlobPut(c.key, jobResult{report: c.report, err: c.err})
		}
		return cells, nil
	}
}
