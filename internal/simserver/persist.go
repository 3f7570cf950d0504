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

// Durability glue: how sweeps and bisect searches checkpoint to the
// journal store and come back. One journal per sweep, keyed by the
// semantic sweep hash:
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
// bytes. Each record is appended with its cell's job-tier key, so a
// sweep replayed from its journal warms the tier without re-hashing,
// and once the journal commits the store's key index serves the cell
// to any sweep or bisect (lookupJob) — after a restart too.
//
// A bisect search journals its fresh cells the same way, in one journal
// per search (searchJournal); only the key index reads it.

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

// cellRecord is one checkpointed cell; its job-tier key is the store
// record's key. Report round-trips through JSON byte-stably
// (shortest-float encoding is its own fixed point, and Report's
// NaN↔null mapping is symmetric), so a replayed cell renders the same
// bytes the original stream sent.
type cellRecord struct {
	Index  int               `json:"index"`
	Meta   []string          `json:"meta,omitempty"`
	Rounds int               `json:"rounds"`
	Report *taskalloc.Report `json:"report,omitempty"`
	Err    string            `json:"err,omitempty"`
	Traj   []byte            `json:"traj,omitempty"`
}

// commitRecord is the terminal journal payload.
type commitRecord struct {
	Summary sweeprun.Summary `json:"summary"`
	Failed  int              `json:"failed"`
}

// cellToRecord converts a completed cell to its journal payload.
func cellToRecord(i int, c cell) cellRecord {
	rec := cellRecord{Index: i, Meta: c.meta, Rounds: c.rounds, Err: c.err, Traj: c.traj}
	if c.err == "" {
		rep := c.report
		rec.Report = &rep
	}
	return rec
}

// recordToCell converts a recovered journal payload and its key ("" for
// a record appended without one) back to a cell.
func recordToCell(rec cellRecord, key string) cell {
	c := cell{meta: rec.Meta, rounds: rec.Rounds, err: rec.Err, traj: rec.Traj, key: key}
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
	return j
}

// sweepIDLen is the length of every sweep ID, a hex SHA-256
// (wire.SemanticSweepHash). A search's journal and memory-tier entry
// share a longer id (searchJournalSuffix), so no sweep route names one.
const sweepIDLen = 64

// hasJournal reports whether sweep id has an on-disk journal and
// whether it is committed. The store's index is the only record of
// on-disk sweeps, so a journal the store evicted reads as absent.
func (s *Server) hasJournal(id string) (exists, complete bool) {
	if s.store == nil {
		return false, false
	}
	return s.store.Lookup(id)
}

// recovered is a journal decoded back to serving state.
type recovered struct {
	header  journalHeader
	cells   []cell // the checkpointed prefix
	summary sweeprun.Summary
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
		// Forget the journal — a vanished file too, so it stops reading
		// as resumable. Ownership of the sweep entry excludes a
		// concurrent Create of the same id.
		_ = s.store.Remove(id)
		if !errors.Is(err, store.ErrNotExist) {
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
		out.cells = append(out.cells, recordToCell(cr, rec.Keys[i]))
	}
	if rec.Complete {
		var com commitRecord
		if err := json.Unmarshal(rec.Final, &com); err != nil || len(out.cells) != out.header.Jobs {
			s.discardRecovered(id, j)
			return nil, fmt.Errorf("journal %s: bad commit", id)
		}
		out.summary = com.Summary
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
	s.persistError()
}

// executeOwned runs an owned sweep to completion and publishes it.
// runCells supplies every cell in strict index order — from the
// recovered journal prefix, the job tier, or the shared pool — and
// every cell past the prefix is checkpointed to j (when non-nil) BEFORE
// it is emitted: the record is on disk before its bytes can reach a
// client, so a crash never leaves a client holding bytes the journal
// cannot replay.
func (s *Server) executeOwned(entry *entry, g *wire.Grid, prefix []cell, j *store.Journal, workers int, emit func(i int, c cell)) {
	cells := make([]cell, len(g.Jobs))
	s.runCells(g, prefix, s.metrics.sweepJobHits, s.metrics.sweepJobMisses, workers, func(i int, c cell, _ bool) {
		if i >= len(prefix) {
			j = s.checkpoint(j, i, c)
		}
		cells[i] = c
		emit(i, c)
	})

	results := make([]sweeprun.Result, len(cells))
	for i, c := range cells {
		results[i] = sweeprun.Result{Index: i, Job: sweeprun.Job{Rounds: g.Jobs[i].Rounds}, Report: c.report}
		if c.err != "" {
			results[i].Err = errors.New(c.err)
		}
	}
	sum := sweeprun.Summarize(results)
	if j != nil {
		payload, err := json.Marshal(commitRecord{Summary: sum, Failed: sum.Failed})
		if err == nil {
			err = j.Commit(payload)
		}
		if err != nil {
			_ = j.Close()
			s.persistError()
		}
	}
	s.publish(entry, cells, sum)
}

// checkpoint appends cell i to the journal under the cell's key and
// returns the handle to keep appending through: nil when durability is
// off, or once an append failed (the sweep degrades to memory-only; the
// journal keeps its valid prefix for a later resume).
func (s *Server) checkpoint(j *store.Journal, i int, c cell) *store.Journal {
	if j == nil {
		return nil
	}
	start := time.Now()
	payload, err := json.Marshal(cellToRecord(i, c))
	if err == nil {
		err = j.Append(c.key, payload)
	}
	s.metrics.stageJournalAppend.ObserveSince(start)
	if err != nil {
		_ = j.Close()
		s.persistError()
		return nil
	}
	return j
}

// serveFromDisk tries to satisfy an owned entry from its journal and
// reports whether it handled the response: a complete journal replays
// (X-Cache hit), an incomplete one resumes (X-Cache resume). false
// means no usable journal — execute fresh. synID is the submitting
// document's syntactic hash ("" for GETs), for alias accounting against
// the stored creator's.
func (s *Server) serveFromDisk(w http.ResponseWriter, entry *entry, synID, format string, cursor, workers int) bool {
	exists, complete := s.hasJournal(entry.id)
	if !exists {
		return false
	}
	rec, err := s.loadJournal(entry.id, !complete)
	if err != nil {
		return false
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
		s.replay(w, entry, format, "hit", cursor)
		return true
	}

	// Incomplete: resume the remaining jobs from the STORED document,
	// so an alias spelling that adopts the journal still renders the
	// creator's exact bytes. It is admitted as a posted one is.
	sweep, err := wire.DecodeSweep(bytes.NewReader(rec.header.Doc))
	var g *wire.Grid
	if err == nil {
		g, err = wire.Admit(sweep, false)
	}
	if err != nil || len(rec.cells) > len(g.Jobs) || len(g.Jobs) != rec.header.Jobs {
		// Unusable journal: the caller executes fresh and charges the
		// miss itself.
		s.discardRecovered(entry.id, rec.journal)
		return false
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
		return true
	}
	s.metrics.diskResumes.Inc()
	s.streamOwned(w, entry, g, rec.cells, rec.journal, format, "resume", cursor, workers)
	return true
}

// searchJournalSuffix turns a bisect search's semantic ID into its
// journal's id, one hex digit longer than any sweep ID.
const searchJournalSuffix = "b"

// searchJournal records one bisect search's fresh cells, keyed, so the
// store's key index serves them after a restart. The journal is opened
// at the search's first fresh cell and committed when the search ends.
type searchJournal struct {
	s      *Server
	id     string // the search's semantic ID
	j      *store.Journal
	n      int // records the journal holds
	opened bool
}

// append journals fresh cells. The first call opens the journal: a new
// one, or the one an earlier run of the search left uncommitted when it
// died, continued after its valid prefix. A journal an earlier run
// committed is left alone — its cells are indexed already, so the rare
// fresh cell of a repeat run stays in memory — and a store error is
// counted; either way the search journals nothing.
func (sj *searchJournal) append(fresh []cell) {
	s := sj.s
	if s.store == nil || len(fresh) == 0 {
		return
	}
	if !sj.opened {
		sj.opened = true
		id := sj.id + searchJournalSuffix
		j, err := s.store.Create(id, []byte(`{"bisect":"`+sj.id+`"}`))
		if errors.Is(err, store.ErrExists) {
			var rec *store.Recovered
			if j, rec, err = s.store.OpenAppend(id); err == nil {
				sj.n = len(rec.Records)
			}
		}
		if err != nil && !errors.Is(err, store.ErrExists) {
			s.persistError()
		}
		sj.j = j
	}
	for _, c := range fresh {
		sj.j = s.checkpoint(sj.j, sj.n, c)
		sj.n++
	}
}

// commit ends the search's journal; a failure is counted and leaves the
// journal incomplete, for the next run of the search to continue.
func (sj *searchJournal) commit() {
	if sj.j == nil {
		return
	}
	if err := sj.j.Commit(nil); err != nil {
		_ = sj.j.Close()
		sj.s.persistError()
	}
}
