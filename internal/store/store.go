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
//     and frame offset of every keyed record, and Get checks the
//     frame's CRC and key before serving it.
//   - Removal deletes the marker before the log, and Open drops a
//     marker whose log is gone, so a stale marker can never vouch for a
//     later journal of the same id or publish its keys.
//   - The commit manifest, one append-only file in the store root,
//     caches the markers so Open reads one file, not one per journal.
//     Before Commit renames a marker into place it appends one frame
//     holding the journal id, the commit time and the marker's exact
//     bytes, fsynced when Sync is on; a failed append fails the commit.
//     Each append first cuts the file back to its last whole frame, so
//     no torn frame ever has a good one after it, and writes ahead of
//     its frame a tombstone (an entry with no marker bytes) for each
//     committed journal removed or evicted since the last append.
//   - Markers stay the source of truth. Open reads a listed marker that
//     has no entry (a store written before the manifest, or a lost
//     tail) directly, drops an entry whose marker is not listed, and
//     takes each id's latest frame, so a tombstone keeps an earlier
//     commit's entry from vouching for a later marker of that id. It
//     indexes keys in commit order: manifest order, with the markers
//     read directly merged in by log mtime, then id. The manifest is
//     rewritten from the live markers (temp file + rename) after a torn
//     tail, after markers read directly, and once dead entries outnumber
//     live ones, so it stays proportional to the live journals.
//
// The store enforces one byte budget by evicting least-recently-
// committed complete journals; in-flight journals are never evicted.
package store

import (
	"bufio"
	"bytes"
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

// okSuffix marks a committed journal: "<id>.wal" + "<id>.ok". Files
// are staged under tempPrefix and renamed into place.
const (
	walSuffix  = ".wal"
	okSuffix   = ".ok"
	tempPrefix = "tmp-"
)

// The commit manifest lives in the store root, where a binary from
// before it, which skips non-directory entries, ignores it. It holds
// manifestMagic, then one kindKeyed frame per commit: the journal id as
// the key, then the commit time (Unix ns, little-endian) and the
// marker's bytes.
const (
	manifestName  = "commits"
	manifestMagic = "TACMIT1\n"
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
	// seq numbers commits in index order; committed counts the complete
	// journals the index holds. removed lists the committed journals
	// forgotten since the manifest was last written: the next append
	// writes a tombstone for each, ahead of its commit's frame.
	seq       int
	committed int
	removed   []string

	// mfMu serializes a commit's manifest append with its marker rename
	// and index update, so the manifest's order is the index's, and
	// guards the manifest: mfSize bytes of whole frames (the magic
	// included) and mfFrames frames, live or dead. mfMu comes before mu.
	mfMu     sync.Mutex
	mfSize   int64
	mfFrames int

	// Monotone activity counters, exported for the telemetry layer.
	appends   atomic.Uint64
	evictions atomic.Uint64
}

// journalInfo is the Store's index entry for one journal.
type journalInfo struct {
	size     int64 // wal + ok marker bytes
	mtime    time.Time
	seq      int // commit order, when complete
	complete bool
	open     bool     // an un-Closed Journal handle exists
	keys     []uint64 // the key hashes its marker lists, to unindex it
}

// keyLoc is one keyed record a commit marker lists: its key's hash
// under the store's seed, and the offset of its frame in the log.
type keyLoc struct {
	hash uint64
	off  int64
}

// commitEntry is one committed journal as Open finds it: from a
// manifest entry, or from the marker itself with its log's mtime.
type commitEntry struct {
	id    string
	mtime time.Time
	size  int64 // wal + ok marker bytes
	keys  []keyLoc
	live  bool // the latest entry of a journal Open found committed
}

// markerRef is a marker Open listed: its fanout directory, and the
// index of its id's latest manifest entry, or -1 when it has none.
type markerRef struct {
	dir   string
	entry int
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
// rebuilds its index. It lists each fanout directory by name, takes the
// committed journals' markers from the commit manifest, and reads only
// the markers the manifest lacks; it lstats a log only when its journal
// is uncommitted (the byte budget and a resume need its size) or its
// marker is read directly. A marker whose journal is gone is deleted.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, seed: maphash.MakeSeed()}
	root, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var logs []string
	markers := map[string]markerRef{}
	for _, e := range root {
		path := filepath.Join(dir, e.Name())
		if !e.IsDir() {
			if strings.HasPrefix(e.Name(), tempPrefix) {
				_ = os.Remove(path) // a manifest rewrite cut short
			}
			continue
		}
		names, err := readNames(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, name := range names {
			if id, ok := strings.CutSuffix(name, walSuffix); ok {
				if ValidID(id) {
					logs = append(logs, id)
				}
			} else if id, ok := strings.CutSuffix(name, okSuffix); ok {
				markers[id] = markerRef{dir: path, entry: -1}
			} else {
				_ = os.Remove(filepath.Join(path, name)) // stale temp
			}
		}
	}

	s.journals = make(map[string]*journalInfo, len(logs))
	entries, torn := s.readManifest(markers)
	var direct []commitEntry
	for _, id := range logs {
		m, ok := markers[id]
		if !ok {
			if fi, err := os.Lstat(s.walPath(id)); err == nil {
				s.journals[id] = &journalInfo{size: fi.Size(), mtime: fi.ModTime()}
				s.bytes += fi.Size()
			}
			continue
		}
		delete(markers, id)
		if m.entry >= 0 {
			entries[m.entry].live = true
			continue
		}
		// A marker the manifest lacks (or caches unparsably) is read
		// directly. A committed log's last write is its commit frame, just
		// before the marker, so its mtime is the commit time.
		fi, err := os.Lstat(s.walPath(id))
		if err != nil {
			continue
		}
		raw, _ := os.ReadFile(s.okPath(id))
		c := commitEntry{id: id, mtime: fi.ModTime(), size: fi.Size() + int64(len(raw))}
		// An unreadable marker indexes nothing; Load reports the journal
		// corrupt.
		_, c.keys, _ = parseMarker(raw, s.seed)
		direct = append(direct, c)
	}
	// The markers left are orphans, from a removal that stopped between
	// marker and log: drop them before a later journal of that id could
	// read as committed.
	for id, m := range markers {
		_ = os.Remove(filepath.Join(m.dir, id+okSuffix))
	}
	s.indexCommits(entries, direct)
	s.compactLocked(torn || len(direct) > 0)
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

// readNames lists a directory's entry names, unsorted and unstatted.
func readNames(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// readManifest streams the commit manifest. For each id in markers it
// parses the latest entry's marker bytes into entries and sets the
// marker's entry to its index, or to -1 when the id's latest frame is
// a tombstone or its marker bytes do not parse; the other frames are
// dead. It reports whether bytes remain past the last whole frame (a
// torn tail, or a file that is not a manifest), and sets mfSize and
// mfFrames to the whole frames read.
func (s *Store) readManifest(markers map[string]markerRef) (entries []commitEntry, torn bool) {
	f, err := os.Open(s.manifestPath())
	if err != nil {
		return nil, !errors.Is(err, os.ErrNotExist)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(manifestMagic))
	if n, _ := io.ReadFull(br, magic); string(magic[:n]) != manifestMagic {
		return nil, n > 0
	}
	entries = make([]commitEntry, 0, len(markers))
	r := &reader{r: br, off: int64(len(manifestMagic)), reuse: true}
	for {
		s.mfSize = r.off
		kind, payload, ok := r.next()
		if !ok {
			return entries, r.sawTail
		}
		id, rest, ok := splitKeyed(payload)
		if kind != kindKeyed || !ok || !ValidID(id) || len(rest) < 8 {
			return entries, true
		}
		s.mfFrames++
		m, listed := markers[id]
		if !listed {
			continue
		}
		m.entry = -1
		if len(rest) > 8 { // else a tombstone
			if size, keys, err := parseMarker(rest[8:], s.seed); err == nil {
				m.entry = len(entries)
				entries = append(entries, commitEntry{id: id, size: size + int64(len(rest)-8), keys: keys,
					mtime: time.Unix(0, int64(binary.LittleEndian.Uint64(rest)))})
			}
		}
		markers[id] = m
	}
}

// indexCommits indexes the committed journals Open found in commit
// order: the live manifest entries in manifest order, with the markers
// read directly merged in by log mtime, then id — eviction's order.
func (s *Store) indexCommits(entries, direct []commitEntry) {
	sort.Slice(direct, func(i, j int) bool {
		return committedBefore(direct[i].mtime, direct[i].id, direct[j].mtime, direct[j].id)
	})
	n := 0
	for _, c := range entries {
		if c.live {
			n += len(c.keys)
		}
	}
	for _, c := range direct {
		n += len(c.keys)
	}
	s.keys = make(map[uint64]recordLoc, n)
	index := func(c *commitEntry) {
		ji := &journalInfo{size: c.size, mtime: c.mtime}
		s.journals[c.id] = ji
		s.bytes += ji.size
		s.indexLocked(c.id, ji, c.keys)
	}
	for i := range entries {
		if !entries[i].live {
			continue
		}
		for len(direct) > 0 && direct[0].mtime.Before(entries[i].mtime) {
			index(&direct[0])
			direct = direct[1:]
		}
		index(&entries[i])
	}
	for i := range direct {
		index(&direct[i])
	}
}

// committedBefore is eviction's order: commit time, then id.
func committedBefore(at time.Time, a string, bt time.Time, b string) bool {
	if !at.Equal(bt) {
		return at.Before(bt)
	}
	return a < b
}

// appendManifest appends one commit's frame to the manifest, after a
// tombstone (an entry with no marker bytes) for each id in removed. It
// first cuts the file back to its last whole frame, so a frame that a
// failed append left behind never precedes a good one. Caller holds
// s.mfMu.
func (s *Store) appendManifest(removed []string, id string, t time.Time, marker []byte) error {
	var buf bytes.Buffer
	if s.mfSize == 0 {
		buf.WriteString(manifestMagic)
	}
	// A bytes.Buffer write cannot fail.
	for _, r := range removed {
		_ = writeFrame(&buf, kindKeyed, entryPayload(r, t, nil))
	}
	_ = writeFrame(&buf, kindKeyed, entryPayload(id, t, marker))
	f, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = f.Truncate(s.mfSize)
	if err == nil {
		_, err = f.WriteAt(buf.Bytes(), s.mfSize)
	}
	if err == nil && s.opts.Sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mfSize += int64(buf.Len())
	s.mfFrames += len(removed) + 1
	return nil
}

// compactLocked rewrites the manifest when force is set or once dead
// entries (of removed, evicted or superseded journals, and tombstones)
// outnumber live ones: one entry per live journal, in commit order,
// read from its marker. Caller holds s.mfMu, or owns the store, as Open
// does.
func (s *Store) compactLocked(force bool) {
	type live struct {
		id    string
		mtime time.Time
		seq   int
	}
	s.mu.Lock()
	if !force && s.mfFrames <= 2*s.committed {
		s.mu.Unlock()
		return
	}
	entries := make([]live, 0, s.committed)
	for id, ji := range s.journals {
		if ji.complete {
			entries = append(entries, live{id, ji.mtime, ji.seq})
		}
	}
	// The rewrite drops the entries these tombstones would close; a
	// journal forgotten from here on still gets its tombstone.
	removed := len(s.removed)
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	size, frames := int64(len(manifestMagic)), 0
	err := s.writeFile(s.dir, s.manifestPath(), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		_, _ = bw.WriteString(manifestMagic) // a write error resurfaces at Flush
		for _, e := range entries {
			marker, err := os.ReadFile(s.okPath(e.id))
			if err != nil {
				continue // removed meanwhile: its entry would be dead
			}
			p := entryPayload(e.id, e.mtime, marker)
			if err := writeFrame(bw, kindKeyed, p); err != nil {
				return err
			}
			size += int64(frameHeaderSize + len(p))
			frames++
		}
		return bw.Flush()
	})
	if err != nil {
		return // best effort: the old manifest reads the same
	}
	s.mfSize, s.mfFrames = size, frames
	s.mu.Lock()
	s.removed = s.removed[removed:]
	s.mu.Unlock()
}

// entryPayload is one manifest frame's payload.
func entryPayload(id string, t time.Time, marker []byte) []byte {
	return keyedPayload(id, binary.LittleEndian.AppendUint64(nil, uint64(t.UnixNano())), marker)
}

// keyedPayload is a kindKeyed frame's payload: the key's length (one
// byte), the key, then the record's parts.
func keyedPayload(key string, parts ...[]byte) []byte {
	n := 1 + len(key)
	for _, p := range parts {
		n += len(p)
	}
	b := append(append(make([]byte, 0, n), byte(len(key))), key...)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// writeFile makes path appear whole or not at all: write fills a temp
// file in dir, fsynced when Sync is on, which is then renamed to path.
func (s *Store) writeFile(dir, path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = write(tmp)
	if err == nil && s.opts.Sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ValidID reports whether id is usable as a journal id or a record
// key: at least 8 and at most 128 lowercase hex digits (the canonical
// hashes are 64), so ids can never traverse paths and keys fit a
// commit marker's lines.
func ValidID(id string) bool {
	if len(id) < 8 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if !lowerHex[id[i]] {
			return false
		}
	}
	return true
}

// lowerHex marks the bytes ValidID accepts. A table lookup, unlike a
// range test, takes no branch that a random hex id mispredicts, and Open
// checks every key every marker lists.
var lowerHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdef" {
		t[c] = true
	}
	return t
}()

func (s *Store) walPath(id string) string {
	return filepath.Join(s.dir, id[:2], id+walSuffix)
}

func (s *Store) okPath(id string) string {
	return filepath.Join(s.dir, id[:2], id+okSuffix)
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, manifestName)
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

// indexLocked marks a journal committed, latest in commit order, and
// publishes its keys: a key an earlier journal also holds now points
// here. Caller holds s.mu (or owns the store, as Open does).
func (s *Store) indexLocked(id string, ji *journalInfo, keys []keyLoc) {
	s.seq++
	s.committed++
	ji.complete, ji.seq = true, s.seq
	ji.keys = make([]uint64, len(keys))
	for i, k := range keys {
		ji.keys[i] = k.hash
		s.keys[k.hash] = recordLoc{id: id, off: k.off}
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
	if ji.complete {
		s.committed--
		s.removed = append(s.removed, id)
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
	if err := s.writeFile(shard, s.walPath(id), func(w io.Writer) error {
		if _, err := io.WriteString(w, journalMagic); err != nil {
			return err
		}
		return writeFrame(w, kindHeader, header)
	}); err != nil {
		return fail(err)
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
		return committedBefore(cands[i].mtime, cands[i].id, cands[j].mtime, cands[j].id)
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
		n, _, perr := parseMarker(ok, s.seed)
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

// reader decodes frames sequentially, tracking the valid offset. With
// reuse set, every payload shares one buffer, which the next call
// overwrites.
type reader struct {
	r           io.Reader
	off         int64
	commitStart int64
	sawTail     bool
	reuse       bool
	buf         []byte
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
	if r.reuse && cap(r.buf) >= int(length) {
		payload = r.buf[:length]
	} else if payload = make([]byte, length); r.reuse {
		r.buf = payload
	}
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

// parseMarker reads a commit marker back: the committed log size, then
// each keyed record's key, hashed under seed, and frame offset. A
// marker written before records were keyed holds the size alone.
func parseMarker(raw []byte, seed maphash.Seed) (size int64, keys []keyLoc, err error) {
	first, rest, more := strings.Cut(strings.TrimSuffix(string(raw), "\n"), "\n")
	if size, err = strconv.ParseInt(strings.TrimSpace(first), 10, 64); err != nil {
		return 0, nil, err
	}
	if more {
		keys = make([]keyLoc, 0, strings.Count(rest, "\n")+1)
	}
	for more {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		key, off, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(off, 10, 64)
		if err != nil || n < 0 || !ValidID(key) {
			return 0, nil, fmt.Errorf("store: bad marker line %q", line)
		}
		keys = append(keys, keyLoc{maphash.String(seed, key), n})
	}
	return size, keys, nil
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
		return err
	}
	_, err := w.Write(payload)
	return err
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
	frame := keyedPayload(key, payload)
	if err := writeFrame(j.f, kindKeyed, frame); err != nil {
		return fmt.Errorf("store: %w", err)
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

// Commit writes the terminal commit record, appends the commit to the
// manifest, writes the sidecar marker via temp file + atomic rename,
// and closes the journal. After Commit the journal is complete:
// OpenAppend refuses it and recovery returns every record plus the
// commit payload.
func (j *Journal) Commit(payload []byte) error {
	if j.closed {
		return errors.New("store: commit on closed journal")
	}
	if err := writeFrame(j.f, kindCommit, payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// With Sync on, the log must be on disk before the marker can vouch
	// for it; a failed fsync leaves the journal uncommitted. With Sync
	// off, commit costs no fsync, like Append.
	if j.s.opts.Sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s := j.s
	committed := j.size + int64(frameHeaderSize+len(payload))
	marker := formatMarker(committed, j.keyed)
	s.mfMu.Lock()
	defer s.mfMu.Unlock()
	now := time.Now()
	s.mu.Lock()
	removed := s.removed
	s.mu.Unlock()
	if err := s.appendManifest(removed, j.id, now, marker); err != nil {
		return err
	}
	if err := s.writeFile(filepath.Join(s.dir, j.id[:2]), s.okPath(j.id), func(w io.Writer) error {
		_, err := w.Write(marker)
		return err
	}); err != nil {
		return err
	}
	grow := committed - j.size + int64(len(marker))
	j.size = committed
	s.mu.Lock()
	s.removed = s.removed[len(removed):]
	if ji, ok := s.journals[j.id]; ok {
		ji.size += grow
		ji.open = false
		ji.mtime = now
		s.bytes += grow
		keys := make([]keyLoc, len(j.keyed))
		for i, k := range j.keyed {
			keys[i] = keyLoc{maphash.String(s.seed, k.key), k.off}
		}
		s.indexLocked(j.id, ji, keys)
		s.evictLocked(j.id)
	}
	s.mu.Unlock()
	s.compactLocked(false)
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
