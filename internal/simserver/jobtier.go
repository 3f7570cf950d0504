package simserver

import (
	"encoding/json"
	"time"

	"taskalloc"
	"taskalloc/internal/obs"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// The job tier: job-level results keyed by the behavioral job hash
// (wire.SemanticHash with Trajectory cleared — a wire.Grid's Keys),
// shaped alike in memory and on disk: entries,
// one per sweep or bisect search, and a key index over the cells they
// hold. In memory, a sweep entry holds its keyed cells once published,
// a search entry each round's cells as the round ends; on disk, the
// store indexes committed journals. Sweeps and bisects produce their
// cells through one runner (runCells): a cell either level holds is
// never simulated again. Reports only, so a trajectory job always runs.

// held is one key's cell outcome, and, in the memory index, the number
// of held entries that hold it. Only holders changes once indexed.
type held struct {
	report  taskalloc.Report
	err     string
	holders int
}

// holdLocked charges e the bytes of cells and makes it hold each keyed
// cell it does not hold yet: the key enters the index, or its holder
// count grows by one. Caller holds s.mu.
func (s *Server) holdLocked(e *entry, cells []cell) {
	mine := make(map[string]bool, len(e.keys)+len(cells))
	for _, k := range e.keys {
		mine[k] = true
	}
	for _, c := range cells {
		size := int64(len(c.traj)) + int64(len(c.err)) + 256 // report + struct overhead
		for _, m := range c.meta {
			size += int64(len(m))
		}
		e.size += size
		s.cacheSize += size
		if c.key == "" || mine[c.key] {
			continue
		}
		mine[c.key] = true
		e.keys = append(e.keys, c.key)
		h := s.index[c.key]
		if h == nil {
			h = &held{report: c.report, err: c.err}
			s.index[c.key] = h
		}
		h.holders++
	}
	s.evictLocked()
}

// releaseLocked drops e's holds and byte charge: each of its keys loses
// one holder, and leaves the index at zero. Caller holds s.mu.
func (s *Server) releaseLocked(e *entry) {
	for _, k := range e.keys {
		if h := s.index[k]; h.holders > 1 {
			h.holders--
		} else {
			delete(s.index, k)
		}
	}
	s.cacheSize -= e.size
}

// runCells produces every cell of g and hands it to emit in strict
// index order, known reporting whether the cell was served rather than
// simulated. Cell i is served from prefix (a recovered journal prefix,
// len(prefix) <= len(g.Jobs)) when i < len(prefix), else from the job
// tier (tierCell, each lookup charged to hits or misses); only the rest
// get runnable jobs (g.Decode), with the trajectory recorders they
// asked for, and run as one sweeprun.Stream batch over the shared pool
// and gate. Every emitted cell carries its job-tier key.
func (s *Server) runCells(g *wire.Grid, prefix []cell, hits, misses *obs.Counter, workers int, emit func(i int, c cell, known bool)) {
	n := len(g.Jobs)
	cells := make([]cell, n)
	known := make([]bool, n)
	copy(cells, prefix)
	var idx []int // the cells that must be simulated
	for i := range cells {
		if i < len(prefix) {
			known[i] = true
		} else if c, ok := s.tierCell(g, i, hits, misses); ok {
			cells[i], known[i] = c, true
		} else {
			idx = append(idx, i)
		}
		cells[i].key = g.Keys[i]
	}

	jobs := g.Decode(idx)
	recs := make([]*wire.TrajectoryRecorder, len(jobs))
	for k, i := range idx {
		if g.Jobs[i].Trajectory {
			tasks := len(jobs[k].Config.Demands)
			if d := jobs[k].Config.Demand; d != nil {
				tasks = d.Tasks()
			}
			rec := wire.NewTrajectoryRecorder(tasks)
			recs[k] = rec
			jobs[k].Observe = func(sim *taskalloc.Simulation) taskalloc.Observer {
				return rec.Observer(sim)
			}
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
		i := idx[res.Index]
		c := cell{meta: res.Job.Meta, rounds: res.Job.Rounds, report: res.Report, key: g.Keys[i]}
		if res.Err != nil {
			c.err = res.Err.Error()
		} else if rec := recs[res.Index]; rec != nil {
			// Only successful cells carry a trajectory: a failed cell's
			// recorder holds just the pre-written header, which would
			// read as a legitimate zero-round run.
			c.traj = rec.Bytes()
		}
		emit(i, c, false)
		next = i + 1
		advance()
	})
}

// tierCell serves cell i of g from the job tier, charging the lookup to
// hits or misses. A job that asks for a trajectory is a miss without a
// lookup: the tier holds reports only.
func (s *Server) tierCell(g *wire.Grid, i int, hits, misses *obs.Counter) (cell, bool) {
	if j := g.Jobs[i]; !j.Trajectory {
		if h, ok := s.lookupJob(g.Keys[i]); ok {
			hits.Inc()
			return cell{meta: j.Meta, rounds: j.Rounds, report: h.report, err: h.err}, true
		}
	}
	misses.Inc()
	return cell{}, false
}

// lookupJob consults the job tier for one key: the memory index first,
// then the journal store's key index (a committed journal of this or a
// previous process lifetime), whose hits are counted as
// job_cache_disk_hits; the entry that reads a disk hit holds it with
// the rest of its cells. The store serves a record only if it was
// appended with key. Callers count the hit or miss themselves.
func (s *Server) lookupJob(key string) (*held, bool) {
	s.mu.Lock()
	h := s.index[key]
	s.mu.Unlock()
	if h != nil {
		return h, true
	}
	if s.store == nil {
		return nil, false
	}
	raw, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var rec cellRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, false
	}
	s.metrics.jobCacheDiskHits.Inc()
	c := recordToCell(rec, key)
	return &held{report: c.report, err: c.err}, true
}
