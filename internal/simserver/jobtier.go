package simserver

import (
	"encoding/json"
	"time"

	"taskalloc"
	"taskalloc/internal/obs"
	"taskalloc/internal/sweeprun"
)

// The job tier: job-level results keyed by the behavioral job hash
// (wire.SemanticHash with Trajectory cleared — for sweep cells,
// wire.SemanticSweepKeys). It is a memory FIFO in front of the journal
// store's key index (durable mode only), and sweeps and bisects produce
// their cells through the one runner below (runCells): a cell some
// earlier sweep or bisect computed is never simulated again while the
// tier holds it. Reports only — a few hundred bytes each — so a job
// that asks for a trajectory always runs. Every journaled cell, a
// sweep's or a bisect search's, is appended with its key, so the disk
// level needs no writes of its own; cells enter the memory tier when
// their sweep is published (fresh, resumed, or replayed from a
// journal), when a bisect computes them, and when the index serves
// them.

// runCells produces every cell of g and hands it to emit in strict
// index order, known reporting whether the cell was served rather than
// simulated. Cell i is served from prefix (a recovered journal prefix,
// len(prefix) <= len(g.jobs)) when i < len(prefix), else from the job
// tier (tierCell, each lookup charged to hits or misses); the remaining
// cells run as one sweeprun.Stream batch over the shared pool and gate.
// Every emitted cell carries its job-tier key. The only error is
// g.decode's, returned before any cell is emitted.
func (s *Server) runCells(g grid, prefix []cell, hits, misses *obs.Counter, workers int, emit func(i int, c cell, known bool)) error {
	n := len(g.jobs)
	cells := make([]cell, n)
	known := make([]bool, n)
	copy(cells, prefix)
	var run []int // indices of the cells that must be simulated
	for i := range cells {
		if i < len(prefix) {
			known[i] = true
		} else if c, ok := s.tierCell(g, i, hits, misses); ok {
			cells[i], known[i] = c, true
		} else {
			run = append(run, i)
		}
		cells[i].key = g.keys[i]
	}

	var jobs []sweeprun.Job
	if g.decode != nil {
		var err error
		if jobs, err = g.decode(run); err != nil {
			return err
		}
	} else {
		jobs = make([]sweeprun.Job, len(run))
		for k, i := range run {
			jobs[k] = g.jobs[i]
		}
	}

	// advance emits every known cell from next on, up to the first cell
	// still being simulated.
	next := 0
	advance := func() {
		for ; next < n && known[next]; next++ {
			emit(next, cells[next], true)
		}
	}
	advance()
	sweeprun.Stream(jobs, sweeprun.Options{
		Workers:  workers,
		Pool:     s.pool,
		Gate:     s.gate,
		OnTiming: s.observeJobTiming,
	}, func(res sweeprun.Result) {
		if d := s.opts.JobDelay; d > 0 {
			// Chaos/test hook: make every freshly computed cell cost at
			// least d wall-clock, simulating a slow heterogeneous backend.
			time.Sleep(d)
		}
		// Stream emits in order, and advance has emitted every known
		// cell before this one: cell i is next.
		i := run[res.Index]
		c := cell{meta: res.Job.Meta, rounds: res.Job.Rounds, report: res.Report, key: g.keys[i]}
		if res.Err != nil {
			c.err = res.Err.Error()
		} else if rec := g.recs[i]; rec != nil {
			// Only successful cells carry a trajectory: a failed cell's
			// recorder holds just the pre-written header, which would
			// read as a legitimate zero-round run.
			c.traj = rec.Bytes()
		}
		emit(i, c, false)
		next = i + 1
		advance()
	})
	return nil
}

// tierCell serves cell i of g from the job tier, charging the lookup to
// hits or misses. A job that asks for a trajectory is a miss without a
// lookup: the tier holds reports only.
func (s *Server) tierCell(g grid, i int, hits, misses *obs.Counter) (cell, bool) {
	if g.recs[i] == nil {
		if jr, ok := s.lookupJob(g.keys[i]); ok {
			hits.Inc()
			return cell{meta: g.jobs[i].Meta, rounds: g.jobs[i].Rounds, report: jr.report, err: jr.err}, true
		}
	}
	misses.Inc()
	return cell{}, false
}

// jobResult is one cached cell outcome. Reports are a few hundred
// bytes, so the tier is bounded by entry count, not bytes.
type jobResult struct {
	report taskalloc.Report
	err    string
}

// lookupJob consults the job tier for one key: memory first, then the
// journal store's key index (a committed journal of this or a previous
// process lifetime), whose hits are promoted into memory and counted as
// job_cache_disk_hits. The store serves a record only if it was
// appended with key. Callers count the hit or miss themselves.
func (s *Server) lookupJob(key string) (jobResult, bool) {
	s.mu.Lock()
	jr, ok := s.jobCache[key]
	s.mu.Unlock()
	if ok {
		return jr, true
	}
	if s.store == nil {
		return jobResult{}, false
	}
	raw, ok := s.store.Get(key)
	if !ok {
		return jobResult{}, false
	}
	var rec cellRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return jobResult{}, false
	}
	jr = jobResult{err: rec.Err}
	if rec.Report != nil {
		jr.report = *rec.Report
	}
	s.mu.Lock()
	s.storeJobLocked(key, jr)
	s.mu.Unlock()
	s.metrics.jobCacheDiskHits.Inc()
	return jr, true
}

// storeJobLocked inserts one memory-tier entry, evicting FIFO past the
// entry budget. Caller holds s.mu.
func (s *Server) storeJobLocked(key string, jr jobResult) {
	if _, ok := s.jobCache[key]; ok {
		return
	}
	s.jobCache[key] = jr
	s.jobOrder = append(s.jobOrder, key)
	for len(s.jobOrder) > s.opts.JobCacheEntries {
		delete(s.jobCache, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
}
