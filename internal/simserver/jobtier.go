package simserver

import (
	"encoding/json"

	"taskalloc"
)

// The job tier: job-level results keyed by the behavioral job hash
// (wire.SemanticHash with Trajectory cleared — for sweep cells,
// wire.SemanticSweepKeys). It is a memory FIFO in front of the
// optional disk blob cache, and sweeps and bisects read it through the
// one lookup below: a cell some earlier sweep or bisect computed is
// never simulated again while the tier holds it. Reports only — a few
// hundred bytes each — so a job that asks for a trajectory always
// runs. Bisect cells are written through to disk one blob per cell;
// sweep cells are not (their journal already holds them, keyed), and
// enter the memory tier when their sweep is published — fresh, resumed,
// or replayed from a journal after a restart.

// jobResult is one cached cell outcome. Reports are a few hundred
// bytes, so the tier is bounded by entry count, not bytes.
type jobResult struct {
	report taskalloc.Report
	err    string
}

// persistedJob is the blob-cache encoding of one job-level result.
type persistedJob struct {
	Report *taskalloc.Report `json:"report,omitempty"`
	Err    string            `json:"err,omitempty"`
}

// lookupJob consults the job tier for one key: memory first, then the
// disk blob cache (a previous process lifetime, or another backend
// sharing the mount), whose hits are promoted into memory and counted
// as job_cache_disk_hits. Callers count the hit or miss themselves.
func (s *Server) lookupJob(key string) (jobResult, bool) {
	s.mu.Lock()
	jr, ok := s.jobCache[key]
	s.mu.Unlock()
	if ok {
		return jr, true
	}
	if jr, ok = s.jobBlobGet(key); !ok {
		return jobResult{}, false
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

// jobBlobGet consults the disk job cache; ok only for a decodable
// entry.
func (s *Server) jobBlobGet(key string) (jobResult, bool) {
	if s.blob == nil {
		return jobResult{}, false
	}
	raw, ok := s.blob.Get(key)
	if !ok {
		return jobResult{}, false
	}
	var pj persistedJob
	if err := json.Unmarshal(raw, &pj); err != nil {
		return jobResult{}, false
	}
	jr := jobResult{err: pj.Err}
	if pj.Report != nil {
		jr.report = *pj.Report
	}
	return jr, true
}

// jobBlobPut writes one job result to the disk cache (best-effort).
func (s *Server) jobBlobPut(key string, jr jobResult) {
	if s.blob == nil {
		return
	}
	pj := persistedJob{Err: jr.err}
	if jr.err == "" {
		rep := jr.report
		pj.Report = &rep
	}
	raw, err := json.Marshal(pj)
	if err == nil {
		err = s.blob.Put(key, raw)
	}
	if err != nil {
		s.persistError()
	}
}
