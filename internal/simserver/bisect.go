package simserver

import (
	"context"
	"encoding/json"
	"net/http"

	"taskalloc/internal/bisect"
	"taskalloc/internal/wire"
)

// Adaptive γ-bisection (POST /v1/bisect). The search — its ID, budget
// and keyed γ cells — is internal/bisect's, shared with the grid
// coordinator. The decode admits the request (wire.BisectRequest.Validate:
// the evaluation budget, and the template as a one-cell sweep, decoded),
// the server charges the tenant quota the budget, and serves or runs
// each round's cells through the sweeps' runner (runCells), so a
// repeat, overlapping or equivalent search reuses the job tier. A
// search runs under its own memory-tier entry (runBisectCoalesced), and
// its fresh cells are journaled per search (searchJournal).

func (s *Server) handleBisect(w http.ResponseWriter, r *http.Request) {
	_, workers, ok := s.requestQuery(w, r, false)
	if !ok {
		return
	}

	req, err := wire.DecodeBisectRequest(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
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

	resp, disposition, err := s.runBisectCoalesced(r.Context(), search.ID, func(e *entry) (wire.BisectResponse, error) {
		sj := &searchJournal{s: s, id: search.ID}
		defer sj.commit()
		return search.Run(s.bisectEvaluator(e, workers, sj))
	})
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

// runBisectCoalesced runs a search under its memory-tier entry, so that
// concurrent identical requests share one execution (else a dashboard
// double-refresh doubles admission-gated compute): a request that finds
// the entry in flight waits for the owner's response (disposition
// "coalesced") or error. Otherwise it owns a new entry and runs run,
// which holds each round's cells in it. A completed entry answers no
// request: its holds and FIFO place pass to the new owner, so a repeat
// finds every cell it held. An owner with no response drops its entry.
// The response is nil with a nil error only if a waiter's ctx ended or
// its owner panicked.
func (s *Server) runBisectCoalesced(ctx context.Context, searchID string, run func(e *entry) (wire.BisectResponse, error)) (*wire.BisectResponse, string, error) {
	id := searchID + searchJournalSuffix
	s.mu.Lock()
	if e := s.entries[id]; e != nil && !e.completed() {
		s.mu.Unlock()
		s.metrics.bisectCoalesced.Inc()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, "", nil
		}
		if e.resp == nil {
			return nil, "", e.err
		}
		return e.resp, "coalesced", nil
	}
	e := &entry{id: id, done: make(chan struct{})}
	if old := s.entries[id]; old != nil {
		e.keys = old.keys
		s.cacheSize -= old.size
		s.entries[id] = e
	} else {
		s.addLocked(e)
	}
	s.mu.Unlock()

	defer func() {
		if e.resp == nil {
			s.drop(e)
		}
	}()
	resp, err := run(e)
	if err != nil {
		e.err = err
		return nil, "", err
	}
	e.resp = &resp
	close(e.done)
	return e.resp, bisect.Disposition(resp), nil
}

// bisectEvaluator returns the local evaluator for the search that owns
// entry e: runCells serves a round's repeats from the job tier and
// decodes and runs the rest as one batch. As the round ends, e holds
// all of its cells, and the fresh ones are written to the search's
// journal sj. A repeat search decodes nothing.
func (s *Server) bisectEvaluator(e *entry, workers int, sj *searchJournal) func([]wire.Job, []string, []wire.BisectCell) error {
	return func(jobs []wire.Job, keys []string, cells []wire.BisectCell) error {
		round := make([]cell, 0, len(jobs))
		var fresh []cell
		err := s.runCells(grid{jobs: jobs, keys: keys}, nil, s.metrics.bisectJobHits, s.metrics.bisectJobMisses, workers, func(i int, c cell, known bool) {
			cells[i].Cached = known
			if c.err != "" {
				cells[i].Err = c.err
			} else {
				rep := c.report
				cells[i].Report = &rep
			}
			round = append(round, c)
			if !known {
				fresh = append(fresh, c)
			}
		})
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.holdLocked(e, round)
		s.mu.Unlock()
		sj.append(fresh)
		return nil
	}
}
