// Package store is the durability layer of the simulation service: a
// crash-safe, append-only journal store. Everything the service keeps
// in memory dies with the process; this package is what lets a sweep
// survive a restart (internal/simserver re-runs only the jobs past the
// last checkpoint and replays the rest from disk, byte-identical to an
// uninterrupted run) and lets the job tier stay warm across process
// lifetimes: every record is appended with its job key, and a key
// index over committed journals answers Get(key) from one record.
//
// Durability model:
//
//   - A Journal is one write-ahead log: a header record (for a sweep,
//     the submitted document), one record per completed cell in append
//     order, and a terminal commit record. Records are length-prefixed
//     and CRC-framed; recovery reads the longest valid prefix and
//     truncates the torn tail, so a crash mid-append loses at most the
//     record being written — never an earlier checkpoint.
//   - Journal creation stages the header in a temp file and renames it
//     into place, so a journal either exists with a complete header or
//     not at all. Completion is marked by a sidecar ".ok" file written
//     the same way, so "complete" is itself an atomic, crash-safe
//     property. The marker holds the committed byte size, then the key
//     and frame offset of every keyed record: Open rebuilds the key
//     index from the markers alone, without reading journal bodies, and
//     Get checks the frame's CRC and key before serving it.
//   - Removal deletes the marker before the log, and Open drops a
//     marker whose log is gone, so a stale marker can never vouch for a
//     later journal of the same id or publish its keys.
//
// The store enforces one byte budget by evicting least-recently-
// committed complete journals; in-flight journals are never evicted.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds, the first byte of every frame. Append writes kindKeyed,
// whose payload is the key's length (one byte), the key, then the
// record; kindRecord, a record without a key, is what journals held
// before records were keyed, and still loads.
const (
	kindHeader byte = 0
	kindRecord byte = 1
	kindCommit byte = 2
	kindKeyed  byte = 3
)

// journalMagic leads every journal file; a file without it is not a
// journal (a foreign file, or a header rename that never happened —
// impossible by construction, but checked anyway).
const journalMagic = "TAJRNL1\n"

// frameHeaderSize is the fixed per-record overhead: kind byte, 4-byte
// little-endian payload length, 4-byte CRC-32 (IEEE) over kind+payload.
const frameHeaderSize = 1 + 4 + 4

// maxFrameBytes bounds one record's payload so a corrupt length field
// cannot make recovery allocate without bound.
const maxFrameBytes = 1 << 30

// okSuffix marks a committed journal: "<id>.wal" + "<id>.ok".
const (
	walSuffix = ".wal"
	okSuffix  = ".ok"
)

// Sentinel errors callers branch on.
var (
	// ErrNotExist reports a journal id with no file behind it.
	ErrNotExist = errors.New("store: journal does not exist")
	// ErrExists reports a Create for an id that already has a journal.
	ErrExists = errors.New("store: journal already exists")
	// ErrCorrupt reports a journal whose header cannot be recovered (or
	// whose commit marker contradicts the file). The caller should
	// Remove it and start over; checkpoints in a corrupt journal are
	// not trustworthy.
	ErrCorrupt = errors.New("store: journal corrupt")
)

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the journals' total disk usage; complete journals
	// are evicted least-recently-committed past it. <= 0 means no cap.
	// In-flight (uncommitted) journals are never evicted.
	MaxBytes int64
	// Sync fsyncs after every append and commit. Off, the OS page cache
	// still survives a process kill (SIGKILL-safe); on, checkpoints
	// additionally survive a machine crash, at a large append cost.
	Sync bool
}

// Store manages the journals under one directory. It is safe for
// concurrent use within a process; the directory must not be shared by
// several Store instances writing the same ids.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	journals map[string]*journalInfo
	bytes    int64
	// keys maps a record key, by its hash under seed, to the record
	// that holds it, over committed journals only. When several
	// journals hold one key, the latest commit wins. Get checks the
	// record's own key, so two keys sharing a hash cost a miss, never a
	// wrong record, and the index holds no key strings.
	keys map[uint64]recordLoc
	seed maphash.Seed

	// Monotone activity counters, exported for the telemetry layer.
	appends   atomic.Uint64
	evictions atomic.Uint64
}

// journalInfo is the Store's index entry for one journal.
type journalInfo struct {
	size     int64 // wal + ok marker bytes
	mtime    time.Time
	complete bool
	open     bool     // an un-Closed Journal handle exists
	keys     []uint64 // the key hashes its marker lists, to unindex it
}

// recordLoc locates one keyed record: its journal and the offset of its
// frame in the log.
type recordLoc struct {
	id  string
	off int64
}

// keyedRecord is one line of a commit marker's key list.
type keyedRecord struct {
	key string
	off int64
}

// Open opens (creating if needed) the journal store rooted at dir and
// rebuilds its index by scanning the fanout directories: every journal,
// and the keys the commit markers list. A marker whose journal is gone
// is deleted.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir: dir, opts: opts, journals: make(map[string]*journalInfo),
		keys: make(map[uint64]recordLoc), seed: maphash.MakeSeed(),
	}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		markers := map[string]bool{}
		for _, f := range files {
			if id, ok := strings.CutSuffix(f.Name(), okSuffix); ok {
				markers[id] = true
			}
		}
		for _, f := range files {
			name := f.Name()
			id, isWal := strings.CutSuffix(name, walSuffix)
			if !isWal {
				if !strings.HasSuffix(name, okSuffix) {
					_ = os.Remove(filepath.Join(dir, sh.Name(), name)) // stale temp
				}
				continue
			}
			if !ValidID(id) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			// A committed log's last write is its commit frame, just
			// before the marker, so its mtime is the commit time.
			ji := &journalInfo{size: info.Size(), mtime: info.ModTime()}
			if markers[id] {
				delete(markers, id)
				ji.complete = true
				raw, _ := os.ReadFile(s.okPath(id))
				ji.size += int64(len(raw))
				// An unreadable marker indexes nothing; Load reports the
				// journal corrupt.
				if _, keyed, err := parseMarker(raw); err == nil {
					s.indexLocked(id, ji, keyed)
				}
			}
			s.journals[id] = ji
			s.bytes += ji.size
		}
		// The markers left are orphans, from a removal that stopped
		// between marker and log: drop them before a later journal of
		// that id could read as committed.
		for id := range markers {
			_ = os.Remove(filepath.Join(dir, sh.Name(), id+okSuffix))
		}
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

// ValidID reports whether id is usable as a journal id or a record
// key: at least 8 and at most 128 lowercase hex digits (the canonical
// hashes are 64), so ids can never traverse paths and keys fit a
// commit marker's lines.
func ValidID(id string) bool {
	if len(id) < 8 || len(id) > 128 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) walPath(id string) string {
	return filepath.Join(s.dir, id[:2], id+walSuffix)
}

func (s *Store) okPath(id string) string {
	return filepath.Join(s.dir, id[:2], id+okSuffix)
}

// Lookup reports whether the index holds a journal for id — one being
// written counts — and whether that journal is committed. It answers
// from the index, which eviction and Remove update, so an evicted or
// removed journal reads as absent at once.
func (s *Store) Lookup(id string) (exists, complete bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ji, ok := s.journals[id]
	return ok, ok && ji.complete
}

// Get returns the record a committed journal holds for key, reading one
// frame through the key index. A key the index lacks is a miss, and so
// is a frame that fails its CRC or carries another key: Get serves a
// record only if it was appended with key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	loc, ok := s.keys[maphash.String(s.seed, key)]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := os.Open(s.walPath(loc.id))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	r := &reader{r: io.NewSectionReader(f, loc.off, maxFrameBytes+frameHeaderSize)}
	kind, payload, ok := r.next()
	if !ok || kind != kindKeyed {
		return nil, false
	}
	got, rec, ok := splitKeyed(payload)
	if !ok || got != key {
		return nil, false
	}
	return rec, true
}

// indexLocked publishes a committed journal's keys. Caller holds s.mu
// (or owns the store, as Open does).
func (s *Store) indexLocked(id string, ji *journalInfo, keyed []keyedRecord) {
	ji.keys = make([]uint64, len(keyed))
	for i, k := range keyed {
		ji.keys[i] = maphash.String(s.seed, k.key)
		s.keys[ji.keys[i]] = recordLoc{id: id, off: k.off}
	}
}

// forgetLocked drops a journal from the index, with every key entry
// that points into it. Caller holds s.mu.
func (s *Store) forgetLocked(id string) {
	ji, ok := s.journals[id]
	if !ok {
		return
	}
	for _, k := range ji.keys {
		if s.keys[k].id == id {
			delete(s.keys, k)
		}
	}
	s.bytes -= ji.size
	delete(s.journals, id)
}

// Stats reports the index's journal count and total bytes.
func (s *Store) Stats() (journals int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.journals), s.bytes
}

// Counters reports the store's monotone activity counters since Open:
// journal record appends (checkpoint frames, not headers or commits)
// and complete journals evicted past the byte budget. The telemetry
// layer exposes them as Prometheus counters.
func (s *Store) Counters() (appends, evictions uint64) {
	return s.appends.Load(), s.evictions.Load()
}

// Create starts a new journal for id with the given header payload.
// The header is staged in a temp file and renamed into place, so a
// crash can never leave a journal without a recoverable header.
// Returns ErrExists if the id already has a journal.
func (s *Store) Create(id string, header []byte) (*Journal, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid journal id %q", id)
	}
	s.mu.Lock()
	if _, ok := s.journals[id]; ok {
		s.mu.Unlock()
		return nil, ErrExists
	}
	// Reserve the id so a concurrent Create cannot race the rename.
	s.journals[id] = &journalInfo{open: true, mtime: time.Now()}
	s.mu.Unlock()

	fail := func(err error) (*Journal, error) {
		s.mu.Lock()
		delete(s.journals, id)
		s.mu.Unlock()
		return nil, err
	}
	shard := filepath.Join(s.dir, id[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if _, err := tmp.Write([]byte(journalMagic)); err == nil {
		err = writeFrame(tmp, kindHeader, header)
	} else {
		err = fmt.Errorf("store: %w", err)
	}
	if err == nil && s.opts.Sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: %w", cerr)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), s.walPath(id)); err != nil {
		_ = os.Remove(tmp.Name())
		return fail(fmt.Errorf("store: %w", err))
	}
	f, err := os.OpenFile(s.walPath(id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	size := int64(len(journalMagic) + frameHeaderSize + len(header))
	s.mu.Lock()
	s.journals[id].size = size
	s.bytes += size
	s.evictLocked(id)
	s.mu.Unlock()
	return &Journal{s: s, id: id, f: f, size: size}, nil
}

// Load recovers a journal read-only: the longest valid record prefix,
// whether a torn tail was dropped, and — when the commit marker is
// present — the final commit payload. The file is not modified; use
// OpenAppend to truncate the tail and continue appending.
func (s *Store) Load(id string) (*Recovered, error) {
	rec, _, err := s.recover(id)
	return rec, err
}

// OpenAppend recovers a journal and reopens it for appending: the torn
// tail (if any) is truncated so subsequent Appends extend the valid
// prefix. It fails with ErrCorrupt on an unrecoverable journal and
// ErrExists if the journal is already committed (append after commit
// would violate the commit-is-terminal contract).
func (s *Store) OpenAppend(id string) (*Journal, *Recovered, error) {
	rec, validBytes, err := s.recover(id)
	if err != nil {
		return nil, nil, err
	}
	if rec.Complete {
		return nil, nil, fmt.Errorf("%w (already committed)", ErrExists)
	}
	f, err := os.OpenFile(s.walPath(id), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if err := f.Truncate(validBytes); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	ji, ok := s.journals[id]
	if !ok {
		ji = &journalInfo{}
		s.journals[id] = ji
	}
	s.bytes += validBytes - ji.size
	ji.size = validBytes
	ji.open = true
	s.mu.Unlock()
	j := &Journal{s: s, id: id, f: f, size: validBytes}
	for i, key := range rec.Keys {
		if key != "" {
			j.keyed = append(j.keyed, keyedRecord{key: key, off: rec.offs[i]})
		}
	}
	return j, rec, nil
}

// Remove deletes a journal: its commit marker first, so a removal that
// stops half way leaves an incomplete journal, never a marker without
// its log. A marker that cannot be deleted keeps the journal whole.
func (s *Store) Remove(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("store: invalid journal id %q", id)
	}
	if err := removeIfExists(s.okPath(id)); err != nil {
		return err
	}
	err := removeIfExists(s.walPath(id))
	s.mu.Lock()
	s.forgetLocked(id)
	s.mu.Unlock()
	return err
}

// removeIfExists deletes a file; one already gone is no error.
func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evictLocked drops least-recently-committed complete journals while
// over the byte budget. keep (the id being written, if any) and open
// or incomplete journals are never evicted. Caller holds s.mu.
func (s *Store) evictLocked(keep string) {
	if s.opts.MaxBytes <= 0 || s.bytes <= s.opts.MaxBytes {
		return
	}
	type cand struct {
		id    string
		mtime time.Time
	}
	var cands []cand
	for id, ji := range s.journals {
		if ji.complete && !ji.open && id != keep {
			cands = append(cands, cand{id, ji.mtime})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mtime.Equal(cands[j].mtime) {
			return cands[i].mtime.Before(cands[j].mtime)
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		if s.bytes <= s.opts.MaxBytes {
			return
		}
		if removeIfExists(s.okPath(c.id)) != nil {
			continue // kept whole, as Remove keeps it
		}
		_ = removeIfExists(s.walPath(c.id))
		s.forgetLocked(c.id)
		s.evictions.Add(1)
	}
}

// Recovered is a journal's recovered state.
type Recovered struct {
	// ID is the journal's identity.
	ID string
	// Header is the creation payload (record 0).
	Header []byte
	// Records are the checkpoint payloads after the header, in append
	// order — for a sweep journal, cell 0..len(Records)-1.
	Records [][]byte
	// Keys are the records' keys, parallel to Records: "" for a record
	// appended without one.
	Keys []string
	// Complete reports a terminal commit record (and its sidecar
	// marker); Final is its payload.
	Complete bool
	// Final is the commit payload when Complete.
	Final []byte
	// Truncated reports that a torn tail (a partially written record)
	// was found past the valid prefix.
	Truncated bool

	offs []int64 // each record's frame offset, parallel to Records
}

// recover reads the journal's longest valid prefix. validBytes is the
// offset the file should be truncated to before further appends.
func (s *Store) recover(id string) (*Recovered, int64, error) {
	if !ValidID(id) {
		return nil, 0, fmt.Errorf("store: invalid journal id %q", id)
	}
	f, err := os.Open(s.walPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, ErrNotExist
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	var committedSize int64 = -1
	if ok, err := os.ReadFile(s.okPath(id)); err == nil {
		n, _, perr := parseMarker(ok)
		if perr != nil {
			return nil, 0, fmt.Errorf("%w: unreadable commit marker", ErrCorrupt)
		}
		committedSize = n
	}

	r := &reader{r: f}
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != journalMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.off = int64(len(journalMagic))

	rec := &Recovered{ID: id}
	valid := r.off
	for {
		start := r.off
		kind, payload, ok := r.next()
		if !ok {
			rec.Truncated = r.sawTail
			break
		}
		key := ""
		if kind == kindKeyed {
			if key, payload, ok = splitKeyed(payload); ok {
				kind = kindRecord
			}
		}
		switch {
		case kind == kindHeader && rec.Header == nil && len(rec.Records) == 0 && !rec.Complete:
			rec.Header = payload
		case kind == kindRecord && rec.Header != nil && !rec.Complete:
			rec.Records = append(rec.Records, payload)
			rec.Keys = append(rec.Keys, key)
			rec.offs = append(rec.offs, start)
		case kind == kindCommit && rec.Header != nil && !rec.Complete:
			rec.Complete = true
			rec.Final = payload
		default:
			// Frame kinds out of protocol order (a second header, a
			// record after commit, a keyed frame whose key does not
			// parse): treat like a torn tail — keep the valid prefix,
			// drop the rest.
			rec.Truncated = true
			kind = 0xff
		}
		if kind == 0xff {
			break
		}
		valid = r.off
		if rec.Complete {
			break
		}
	}
	if rec.Header == nil {
		return nil, 0, fmt.Errorf("%w: no recoverable header", ErrCorrupt)
	}
	if committedSize >= 0 {
		// The marker says the journal committed; the log must agree, or
		// data the marker promised has been lost.
		if !rec.Complete || valid != committedSize {
			return nil, 0, fmt.Errorf("%w: commit marker disagrees with log", ErrCorrupt)
		}
	} else if rec.Complete {
		// Commit frame present but the marker rename never happened:
		// the commit did not complete. Treat the journal as incomplete
		// and drop the commit frame, so the owner recommits.
		rec.Complete = false
		rec.Final = nil
		rec.Truncated = true
		valid = r.commitStart
	}
	return rec, valid, nil
}

// reader decodes frames sequentially, tracking the valid offset.
type reader struct {
	r           io.Reader
	off         int64
	commitStart int64
	sawTail     bool
}

// next reads one frame; ok=false at EOF or at the first invalid frame
// (sawTail distinguishes the two).
func (r *reader) next() (kind byte, payload []byte, ok bool) {
	var hdr [frameHeaderSize]byte
	n, err := io.ReadFull(r.r, hdr[:])
	if err != nil {
		r.sawTail = n > 0
		return 0, nil, false
	}
	kind = hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:5])
	crc := binary.LittleEndian.Uint32(hdr[5:9])
	if kind > kindKeyed || length > maxFrameBytes {
		r.sawTail = true
		return 0, nil, false
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		r.sawTail = true
		return 0, nil, false
	}
	if frameCRC(kind, payload) != crc {
		r.sawTail = true
		return 0, nil, false
	}
	if kind == kindCommit {
		r.commitStart = r.off
	}
	r.off += int64(frameHeaderSize) + int64(length)
	return kind, payload, true
}

// splitKeyed splits a kindKeyed payload into its key and record.
func splitKeyed(payload []byte) (key string, rec []byte, ok bool) {
	if len(payload) == 0 || len(payload) < 1+int(payload[0]) {
		return "", nil, false
	}
	n := 1 + int(payload[0])
	return string(payload[1:n]), payload[n:], true
}

// formatMarker renders a commit marker: the committed log size on the
// first line, then one "<key> <frame offset>" line per keyed record.
func formatMarker(size int64, keyed []keyedRecord) []byte {
	b := strconv.AppendInt(nil, size, 10)
	b = append(b, '\n')
	for _, k := range keyed {
		b = append(b, k.key...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, k.off, 10)
		b = append(b, '\n')
	}
	return b
}

// parseMarker reads a commit marker back. A marker written before
// records were keyed holds the size alone, and lists no keys.
func parseMarker(raw []byte) (size int64, keyed []keyedRecord, err error) {
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if size, err = strconv.ParseInt(strings.TrimSpace(lines[0]), 10, 64); err != nil {
		return 0, nil, err
	}
	for _, line := range lines[1:] {
		key, off, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(off, 10, 64)
		if err != nil || n < 0 || !ValidID(key) {
			return 0, nil, fmt.Errorf("store: bad marker line %q", line)
		}
		keyed = append(keyed, keyedRecord{key: key, off: n})
	}
	return size, keyed, nil
}

// frameCRC covers the kind byte and the payload.
func frameCRC(kind byte, payload []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, []byte{kind})
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// writeFrame appends one framed record to w.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [frameHeaderSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], frameCRC(kind, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Journal is one open write-ahead log. Append and Commit are not safe
// for concurrent use (the service serializes checkpoints in cell order
// by construction).
type Journal struct {
	s      *Store
	id     string
	f      *os.File
	size   int64
	closed bool
	keyed  []keyedRecord // every keyed record, for the commit marker
}

// ID returns the journal's identity.
func (j *Journal) ID() string { return j.id }

// Append writes one checkpoint record with its key and flushes it to
// the OS (so the record survives a process kill; Options.Sync extends
// that to a machine crash). Once the journal commits, Get serves the
// record under key; an empty key leaves it out of the index.
func (j *Journal) Append(key string, payload []byte) error {
	if j.closed {
		return errors.New("store: append to closed journal")
	}
	if key != "" && !ValidID(key) {
		return fmt.Errorf("store: invalid record key %q", key)
	}
	frame := make([]byte, 0, 1+len(key)+len(payload))
	frame = append(append(append(frame, byte(len(key))), key...), payload...)
	if err := writeFrame(j.f, kindKeyed, frame); err != nil {
		return err
	}
	if j.s.opts.Sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	j.s.appends.Add(1)
	if key != "" {
		j.keyed = append(j.keyed, keyedRecord{key: key, off: j.size})
	}
	grow := int64(frameHeaderSize + len(frame))
	j.size += grow
	j.s.mu.Lock()
	if ji, ok := j.s.journals[j.id]; ok {
		ji.size += grow
		j.s.bytes += grow
		j.s.evictLocked(j.id)
	}
	j.s.mu.Unlock()
	return nil
}

// Commit writes the terminal commit record, then the sidecar marker
// via temp file + atomic rename, and closes the journal. After Commit
// the journal is complete: OpenAppend refuses it and recovery returns
// every record plus the commit payload.
func (j *Journal) Commit(payload []byte) error {
	if j.closed {
		return errors.New("store: commit on closed journal")
	}
	if err := writeFrame(j.f, kindCommit, payload); err != nil {
		return err
	}
	// With Sync on, the log must be on disk before the marker can vouch
	// for it; a failed fsync leaves the journal uncommitted. With Sync
	// off, commit costs no fsync, like Append.
	if j.s.opts.Sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	committed := j.size + int64(frameHeaderSize+len(payload))
	marker := formatMarker(committed, j.keyed)
	shard := filepath.Join(j.s.dir, j.id[:2])
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(marker)
	if werr == nil && j.s.opts.Sync {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	if err := os.Rename(tmp.Name(), j.s.okPath(j.id)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	grow := committed - j.size + int64(len(marker))
	j.size = committed
	j.s.mu.Lock()
	if ji, ok := j.s.journals[j.id]; ok {
		ji.size += grow
		ji.complete = true
		ji.open = false
		ji.mtime = time.Now()
		j.s.bytes += grow
		j.s.indexLocked(j.id, ji, j.keyed)
		j.s.evictLocked(j.id)
	}
	j.s.mu.Unlock()
	j.closed = true
	return j.f.Close()
}

// Close releases the handle without committing; the journal stays
// incomplete and OpenAppend can continue it. Idempotent.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.s.mu.Lock()
	if ji, ok := j.s.journals[j.id]; ok {
		ji.open = false
	}
	j.s.mu.Unlock()
	return j.f.Close()
}
