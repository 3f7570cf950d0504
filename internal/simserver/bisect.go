package simserver

import (
	"encoding/json"
	"errors"
	"net/http"

	"taskalloc/internal/bisect"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Adaptive γ-bisection (POST /v1/bisect). The search — its ID, budget
// and keyed γ cells — is internal/bisect's, shared with the grid
// coordinator. The server admits the template as a one-cell sweep (the
// decode checks the evaluation budget), charges the tenant quota the
// budget, and serves or runs each round's cells through the sweeps'
// runner (runCells), so a repeat, overlapping or equivalent search
// reuses the job tier; fresh cells are journaled per search
// (searchJournal).

func (s *Server) handleBisect(w http.ResponseWriter, r *http.Request) {
	workers, ok := s.requestWorkers(w, r)
	if !ok {
		return
	}

	req, err := wire.DecodeBisectRequest(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err == nil {
		err = wire.Admit([]wire.Job{req.Job})
	}
	if err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	search, err := bisect.New(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Each evaluation is one cell of compute, cached or not.
	if !chargeQuota(w, r, search.Budget()) {
		return
	}

	resp, disposition, err := s.runBisectCoalesced(r, search, workers)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if resp == nil {
		return // waiter whose request context ended first
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
// returned disposition is "coalesced" for a waiter and the search's
// own verdict (bisect.Disposition) for the owner. The returned
// response is nil (with nil error) only when a waiter's request
// context ended before the owner finished. Completed flights are not
// retained: a later repeat re-runs the (job-cache-warm) search.
func (s *Server) runBisectCoalesced(r *http.Request, search *bisect.Search, workers int) (*wire.BisectResponse, string, error) {
	id := search.ID
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

	sj := &searchJournal{s: s, id: id}
	f.resp, f.err = search.Run(s.bisectEvaluator(workers, sj))
	sj.commit()
	s.mu.Lock()
	delete(s.bisectFlights, id)
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, "", f.err
	}
	resp := f.resp
	return &resp, bisect.Disposition(resp), nil
}

// bisectEvaluator returns the local evaluator for one search: runCells
// serves a round's repeats from the job tier and decodes and runs the
// rest as one batch, which is written through to memory and to the
// search's journal sj. A repeat search decodes nothing.
func (s *Server) bisectEvaluator(workers int, sj *searchJournal) func([]wire.Job, []string, []wire.BisectCell) error {
	return func(wjobs []wire.Job, keys []string, cells []wire.BisectCell) error {
		g := grid{
			jobs: make([]sweeprun.Job, len(wjobs)),
			recs: make([]*wire.TrajectoryRecorder, len(wjobs)),
			keys: keys,
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
		for i, wj := range wjobs {
			g.jobs[i] = sweeprun.Job{Meta: wj.Meta, Rounds: wj.Rounds}
		}
		var fresh []cell
		err := s.runCells(g, nil, s.metrics.bisectJobHits, s.metrics.bisectJobMisses, workers, func(i int, c cell, known bool) {
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
			return err
		}
		s.mu.Lock()
		for _, c := range fresh {
			s.storeJobLocked(c.key, jobResult{report: c.report, err: c.err})
		}
		s.mu.Unlock()
		sj.append(fresh)
		return nil
	}
}
