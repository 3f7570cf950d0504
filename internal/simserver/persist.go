package simserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"taskalloc"
	"taskalloc/internal/store"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Durability glue: how sweeps checkpoint to the journal store and come
// back. One journal per sweep, keyed by the semantic sweep hash:
//
//	header  = journalHeader (the canonical document + identity)
//	records = one cellRecord per completed cell, in index order
//	commit  = commitRecord (summary + failure count)
//
// Cells are journaled in strict index order, whether the job tier
// supplied them or sweeprun.Stream computed them, so the journal's
// record sequence IS the response's cell order: recovery of k records
// means cells [0,k) are replayable byte-identically and execution
// resumes at cell k — from the STORED document, so an alias spelling
// that resumes someone else's sweep still renders the creator's exact
// bytes. Each record carries its cell's job-tier key, so a sweep
// replayed from its journal warms the tier without re-hashing.

// journalHeader is a sweep journal's header payload.
type journalHeader struct {
	// ID is the semantic sweep hash (the journal id, restated so a
	// journal is self-describing).
	ID string `json:"id"`
	// SynID is the creator's syntactic hash, for alias accounting.
	SynID string `json:"syn_id"`
	// Jobs is the grid size.
	Jobs int `json:"jobs"`
	// Doc is the canonical document (wire.MarshalSweep), re-decoded on
	// resume so remaining cells run with the creator's exact spelling.
	Doc json.RawMessage `json:"doc"`
}

// cellRecord is one checkpointed cell. Report round-trips through JSON
// byte-stably (shortest-float encoding is its own fixed point, and
// Report's NaN↔null mapping is symmetric), so a replayed cell renders
// the same bytes the original stream sent.
type cellRecord struct {
	Index  int               `json:"index"`
	Meta   []string          `json:"meta,omitempty"`
	Rounds int               `json:"rounds"`
	Report *taskalloc.Report `json:"report,omitempty"`
	Err    string            `json:"err,omitempty"`
	Traj   []byte            `json:"traj,omitempty"`
	// Key is the cell's job-tier key; journals written before records
	// carried it decode with "" and replay unchanged.
	Key string `json:"key,omitempty"`
}

// commitRecord is the terminal journal payload.
type commitRecord struct {
	Summary sweeprun.Summary `json:"summary"`
	Failed  int              `json:"failed"`
}

// diskSweep is the in-memory index entry for one on-disk journal.
type diskSweep struct {
	complete bool
}

// cellToRecord converts a completed cell to its journal payload.
func cellToRecord(i int, c cell) cellRecord {
	rec := cellRecord{Index: i, Meta: c.meta, Rounds: c.rounds, Err: c.err, Traj: c.traj, Key: c.key}
	if c.err == "" {
		rep := c.report
		rec.Report = &rep
	}
	return rec
}

// recordToCell converts a recovered journal payload back to a cell.
func recordToCell(rec cellRecord) cell {
	c := cell{meta: rec.Meta, rounds: rec.Rounds, err: rec.Err, traj: rec.Traj, key: rec.Key}
	if rec.Report != nil {
		c.report = *rec.Report
	}
	return c
}

// persistError counts a durability failure. Persistence is best-effort
// around the in-memory serving path: a journal that cannot be written
// degrades the sweep to memory-only, never fails the request.
func (s *Server) persistError() {
	s.metrics.persistErrors.Inc()
}

// createJournal starts a sweep's journal; nil when durability is off
// or the journal could not be created (counted, degraded to memory).
func (s *Server) createJournal(id, synID string, sweep wire.Sweep) *store.Journal {
	if s.store == nil {
		return nil
	}
	doc, err := wire.MarshalSweep(sweep)
	if err != nil {
		s.persistError()
		return nil
	}
	hdr, err := json.Marshal(journalHeader{ID: id, SynID: synID, Jobs: len(sweep.Jobs), Doc: doc})
	if err != nil {
		s.persistError()
		return nil
	}
	j, err := s.store.Create(id, hdr)
	if err != nil {
		s.persistError()
		return nil
	}
	s.mu.Lock()
	s.diskIdx[id] = &diskSweep{}
	s.mu.Unlock()
	return j
}

// dropJournal discards a failed submission's journal with its index
// entry (the owning request never ran, so nothing is worth resuming).
func (s *Server) dropJournal(j *store.Journal) {
	if j == nil {
		return
	}
	_ = j.Close()
	_ = s.store.Remove(j.ID())
	s.mu.Lock()
	delete(s.diskIdx, j.ID())
	s.mu.Unlock()
}

// hasJournal reports whether id has an on-disk journal.
func (s *Server) hasJournal(id string) (exists, complete bool) {
	if s.store == nil {
		return false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.diskIdx[id]
	if !ok {
		return false, false
	}
	return true, d.complete
}

// recovered is a journal decoded back to serving state.
type recovered struct {
	header  journalHeader
	cells   []cell // the checkpointed prefix
	summary sweeprun.Summary
	failed  int
	// journal is the append handle for an incomplete journal (nil when
	// the journal was complete).
	journal *store.Journal
}

// loadJournal recovers a sweep journal: read-only for a complete one,
// truncate-and-append for an incomplete one (becoming the journal's
// owner). A journal that cannot be decoded is removed and reported as
// an error — the caller executes fresh, as if it never existed.
func (s *Server) loadJournal(id string, wantAppend bool) (*recovered, error) {
	var (
		rec *store.Recovered
		j   *store.Journal
		err error
	)
	if wantAppend {
		j, rec, err = s.store.OpenAppend(id)
	} else {
		rec, err = s.store.Load(id)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.diskIdx, id)
		s.mu.Unlock()
		if !errors.Is(err, store.ErrNotExist) {
			_ = s.store.Remove(id)
			s.persistError()
		}
		return nil, err
	}
	out := &recovered{journal: j}
	if err := json.Unmarshal(rec.Header, &out.header); err != nil {
		s.discardRecovered(id, j)
		return nil, fmt.Errorf("journal %s: bad header: %w", id, err)
	}
	if out.header.Jobs < 0 || len(rec.Records) > out.header.Jobs {
		s.discardRecovered(id, j)
		return nil, fmt.Errorf("journal %s: %d records for %d jobs", id, len(rec.Records), out.header.Jobs)
	}
	for i, raw := range rec.Records {
		var cr cellRecord
		if err := json.Unmarshal(raw, &cr); err != nil || cr.Index != i {
			s.discardRecovered(id, j)
			return nil, fmt.Errorf("journal %s: bad record %d", id, i)
		}
		out.cells = append(out.cells, recordToCell(cr))
	}
	if rec.Complete {
		var com commitRecord
		if err := json.Unmarshal(rec.Final, &com); err != nil || len(out.cells) != out.header.Jobs {
			s.discardRecovered(id, j)
			return nil, fmt.Errorf("journal %s: bad commit", id)
		}
		out.summary = com.Summary
		out.failed = com.Failed
	}
	return out, nil
}

// discardRecovered removes an undecodable journal so the sweep can be
// re-executed fresh.
func (s *Server) discardRecovered(id string, j *store.Journal) {
	if j != nil {
		_ = j.Close()
	}
	_ = s.store.Remove(id)
	s.mu.Lock()
	delete(s.diskIdx, id)
	s.mu.Unlock()
	s.persistError()
}

// executeOwned runs an owned sweep to completion and publishes it.
// A cell is known when the recovered journal prefix holds it (prefix,
// len(prefix) <= len(g.jobs)) or the job tier holds its key; only the
// unknown cells run, through the shared pool. Every cell is emitted in
// strict index order, and every cell past the prefix is checkpointed
// to j (when non-nil) BEFORE it is emitted — the record is on disk
// before its bytes can reach a client, so a crash never leaves a
// client holding bytes the journal cannot replay.
func (s *Server) executeOwned(entry *sweepEntry, g grid, prefix []cell, j *store.Journal, workers int, emit func(i int, c cell)) {
	n := len(g.jobs)
	cells := make([]cell, n)
	known := make([]bool, n)
	copy(cells, prefix)
	var run []int // indices of the cells that must be simulated
	for i := range cells {
		if i < len(prefix) {
			known[i] = true
		} else if c, ok := s.tierCell(g, i); ok {
			cells[i], known[i] = c, true
		} else {
			run = append(run, i)
		}
		cells[i].key = g.keys[i]
	}

	// advance checkpoints and emits every known cell from next on, up to
	// the first cell still being simulated.
	journal := j
	next := 0
	advance := func() {
		for ; next < n && known[next]; next++ {
			if next >= len(prefix) {
				journal = s.checkpoint(journal, next, cells[next])
			}
			emit(next, cells[next])
		}
	}
	advance()
	jobs := make([]sweeprun.Job, len(run))
	for k, i := range run {
		jobs[k] = g.jobs[i]
	}
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
		cells[i], known[i] = c, true
		advance()
	})

	results := make([]sweeprun.Result, n)
	for i, c := range cells {
		results[i] = sweeprun.Result{Index: i, Job: g.jobs[i], Report: c.report}
		if c.err != "" {
			results[i].Err = errors.New(c.err)
		}
	}
	sum := sweeprun.Summarize(results)
	if journal != nil {
		payload, err := json.Marshal(commitRecord{Summary: sum, Failed: sum.Failed})
		if err == nil {
			err = journal.Commit(payload)
		}
		if err != nil {
			_ = journal.Close()
			s.persistError()
		} else {
			s.mu.Lock()
			if d, ok := s.diskIdx[entry.id]; ok {
				d.complete = true
			}
			s.mu.Unlock()
		}
	}
	s.publish(entry, cells, sum)
}

// tierCell serves cell i of g from the job tier, counting the lookup
// on the sweep job-cache counter. A job that asks for a trajectory is a
// miss without a lookup: the tier holds reports only.
func (s *Server) tierCell(g grid, i int) (cell, bool) {
	if g.recs[i] == nil {
		if jr, ok := s.lookupJob(g.keys[i]); ok {
			s.metrics.sweepJobHits.Inc()
			return cell{meta: g.jobs[i].Meta, rounds: g.jobs[i].Rounds, report: jr.report, err: jr.err}, true
		}
	}
	s.metrics.sweepJobMisses.Inc()
	return cell{}, false
}

// checkpoint appends cell i to the journal and returns the handle to
// keep appending through: nil when durability is off, or once an append
// failed (the sweep degrades to memory-only; the journal keeps its
// valid prefix for a later resume).
func (s *Server) checkpoint(j *store.Journal, i int, c cell) *store.Journal {
	if j == nil {
		return nil
	}
	start := time.Now()
	payload, err := json.Marshal(cellToRecord(i, c))
	if err == nil {
		err = j.Append(payload)
	}
	s.metrics.stageJournalAppend.ObserveSince(start)
	if err != nil {
		_ = j.Close()
		s.persistError()
		return nil
	}
	return j
}

// serveFromDisk tries to satisfy an owned entry from its journal.
// It returns the disposition it served ("hit" for a complete journal,
// "resume" after finishing an incomplete one) and whether it handled
// the response; ("", false) means no usable journal — execute fresh.
// synID is the submitting document's syntactic hash ("" for GETs), for
// alias accounting against the stored creator's.
func (s *Server) serveFromDisk(w http.ResponseWriter, r *http.Request, entry *sweepEntry, synID, format string, cursor, workers int) (string, bool) {
	exists, complete := s.hasJournal(entry.id)
	if !exists {
		return "", false
	}
	rec, err := s.loadJournal(entry.id, !complete)
	if err != nil {
		return "", false
	}
	s.mu.Lock()
	entry.jobs = rec.header.Jobs
	entry.synID = rec.header.SynID // the creator whose bytes we replay
	s.mu.Unlock()
	if synID != "" && rec.header.SynID != synID {
		s.metrics.aliasHits.Inc()
	}

	if rec.journal == nil {
		// Complete: publish the recovered cells and replay from cursor.
		// A POST so served never executed — it is a sweep hit (the
		// lookup deferred the hit-or-miss call to here, keeping the
		// counters monotone).
		s.metrics.diskSweepHits.Inc()
		if synID != "" {
			s.metrics.sweepHits.Inc()
		}
		s.publish(entry, rec.cells, rec.summary)
		if cursor > len(rec.cells) {
			httpError(w, http.StatusBadRequest,
				"cursor %d past end of sweep (%d jobs)", cursor, len(rec.cells))
			return "hit", true
		}
		s.setStreamHeaders(w, format, entry.id, "hit")
		s.renderFrom(w, entry, format, cursor)
		return "hit", true
	}

	// Incomplete: resume the remaining jobs from the STORED document,
	// so an alias spelling that adopts the journal still renders the
	// creator's exact bytes.
	sweep, err := wire.DecodeSweep(bytes.NewReader(rec.header.Doc))
	var g grid
	if err == nil {
		var keys []string
		if _, keys, err = wire.SemanticSweepKeys(sweep); err == nil {
			g, err = buildRunnable(sweep, keys)
		}
	}
	if err != nil || len(rec.cells) > len(g.jobs) || len(g.jobs) != rec.header.Jobs {
		// Unusable journal: the caller executes fresh and charges the
		// miss itself.
		s.discardRecovered(entry.id, rec.journal)
		return "", false
	}
	// A resuming POST still executes work, so it counts as the miss the
	// lookup deferred (GET adoptions, synID "", count neither way — as
	// before).
	if synID != "" {
		s.metrics.sweepMisses.Inc()
	}
	if cursor > rec.header.Jobs {
		_ = rec.journal.Close()
		httpError(w, http.StatusBadRequest,
			"cursor %d past end of sweep (%d jobs)", cursor, rec.header.Jobs)
		// The entry was never published; drop it so a retry can resume.
		s.drop(entry)
		return "resume", true
	}
	s.metrics.diskResumes.Inc()
	s.setStreamHeaders(w, format, entry.id, "resume")
	stream, flush := s.newStream(w, format, entry.id, rec.header.Jobs, cursor)
	s.executeOwned(entry, g, rec.cells, rec.journal, workers, func(i int, c cell) {
		if i >= cursor {
			stream.cell(i, c)
			flush()
		}
	})
	stream.finish()
	return "resume", true
}

// newStream builds the response renderer for a (possibly cursored)
// stream plus its flush hook. A cursor > 0 skips the CSV header so
// stitched responses concatenate cleanly; the NDJSON header line is
// always sent (resumed clients drop it — it carries the id they
// already have).
func (s *Server) newStream(w http.ResponseWriter, format, id string, jobs, cursor int) (streamRenderer, func()) {
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	var stream streamRenderer
	switch format {
	case "csv":
		stream = newCSVRenderer(w, cursor == 0)
	default:
		stream = newNDJSONRenderer(w, wire.StreamHeader{Version: wire.V1, ID: id, Jobs: jobs})
	}
	return stream, flush
}

// renderFrom replays a completed sweep's cells starting at cursor.
func (s *Server) renderFrom(w http.ResponseWriter, e *sweepEntry, format string, cursor int) {
	stream, _ := s.newStream(w, format, e.id, e.jobs, cursor)
	for i := cursor; i < len(e.cells); i++ {
		stream.cell(i, e.cells[i])
	}
	stream.finish()
}
