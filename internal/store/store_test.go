package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const testID = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"index":%d,"body":"record body %d with some padding"}`, i, i))
	}
	return out
}

// keyOf is record i's key in the test journals.
func keyOf(i int) string { return fmt.Sprintf("%064x", 0x100+i) }

// forEachSync runs a round-trip or crash test once with Options.Sync
// off and once on: fsyncing must change nothing recovery sees.
func forEachSync(t *testing.T, fn func(t *testing.T, opts Options)) {
	for _, opts := range []Options{{Sync: false}, {Sync: true}} {
		t.Run(fmt.Sprintf("sync=%v", opts.Sync), func(t *testing.T) { fn(t, opts) })
	}
}

// writeJournal builds a journal with n records; commit selects whether
// it is completed. Returns the store.
func writeJournal(t *testing.T, dir string, opts Options, n int, commit bool) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(testID, []byte(`{"header":true}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads(n) {
		if err := j.Append(keyOf(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if commit {
		if err := j.Commit([]byte(`{"done":true}`)); err != nil {
			t.Fatal(err)
		}
	} else if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJournalRoundTrip(t *testing.T) { forEachSync(t, testJournalRoundTrip) }

func testJournalRoundTrip(t *testing.T, opts Options) {
	dir := t.TempDir()
	writeJournal(t, dir, opts, 5, true)

	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Load(testID)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete || rec.Truncated {
		t.Fatalf("complete=%v truncated=%v, want complete, untruncated", rec.Complete, rec.Truncated)
	}
	if string(rec.Header) != `{"header":true}` || string(rec.Final) != `{"done":true}` {
		t.Fatalf("header/final mismatch: %q / %q", rec.Header, rec.Final)
	}
	want := payloads(5)
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if exists, complete := s.Lookup(testID); !exists || !complete {
		t.Fatalf("index: exists=%v complete=%v, want a complete journal", exists, complete)
	}
	if n, _ := s.Stats(); n != 1 {
		t.Fatalf("index holds %d journals, want 1", n)
	}
}

// TestTornTailEveryTruncation is the crash-consistency core: for EVERY
// byte-truncation point of an uncommitted journal, recovery returns an
// exact prefix of the records — never a divergent or corrupted one —
// and appending after OpenAppend extends that prefix cleanly.
func TestTornTailEveryTruncation(t *testing.T) { forEachSync(t, testTornTailEveryTruncation) }

func testTornTailEveryTruncation(t *testing.T, opts Options) {
	golden := t.TempDir()
	writeJournal(t, golden, opts, 4, false)
	walRel := filepath.Join(testID[:2], testID+walSuffix)
	full, err := os.ReadFile(filepath.Join(golden, walRel))
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(4)

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, testID[:2]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walRel), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Load(testID)
		if err != nil {
			// Cut inside magic or the header frame: the journal is
			// unrecoverable, and must say so rather than invent state.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: unexpected error %v", cut, err)
			}
			continue
		}
		if len(rec.Records) > len(want) {
			t.Fatalf("cut=%d: recovered %d records from a 4-record journal", cut, len(rec.Records))
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, want[i]) {
				t.Fatalf("cut=%d: record %d diverges after truncation", cut, i)
			}
		}
		if cut < len(full) && !rec.Truncated && len(rec.Records) != recordsBelow(t, full, cut) {
			t.Fatalf("cut=%d: clean recovery of a torn file", cut)
		}

		// Recover-then-append must behave exactly like never-crashed:
		// continue the journal to 4 records + commit and compare the
		// full recovery against the golden content.
		j, rec2, err := s.OpenAppend(testID)
		if err != nil {
			t.Fatalf("cut=%d: openappend: %v", cut, err)
		}
		if len(rec2.Records) != len(rec.Records) {
			t.Fatalf("cut=%d: OpenAppend recovered %d records, Load %d",
				cut, len(rec2.Records), len(rec.Records))
		}
		for i := len(rec2.Records); i < 4; i++ {
			if err := j.Append(keyOf(i), want[i]); err != nil {
				t.Fatalf("cut=%d: append: %v", cut, err)
			}
		}
		if err := j.Commit([]byte(`{"done":true}`)); err != nil {
			t.Fatalf("cut=%d: commit: %v", cut, err)
		}
		final, err := s.Load(testID)
		if err != nil {
			t.Fatalf("cut=%d: reload: %v", cut, err)
		}
		if !final.Complete || len(final.Records) != 4 {
			t.Fatalf("cut=%d: after repair: complete=%v records=%d", cut, final.Complete, len(final.Records))
		}
		for i := range want {
			if !bytes.Equal(final.Records[i], want[i]) || final.Keys[i] != keyOf(i) {
				t.Fatalf("cut=%d: repaired record %d diverges from never-crashed", cut, i)
			}
			// The marker indexes the recovered prefix with the records
			// appended after it.
			if got, ok := s.Get(keyOf(i)); !ok || !bytes.Equal(got, want[i]) {
				t.Fatalf("cut=%d: Get(key %d) = %q, %v after repair", cut, i, got, ok)
			}
		}
	}
}

// recordsBelow counts how many full record frames fit under cut bytes.
func recordsBelow(t *testing.T, full []byte, cut int) int {
	t.Helper()
	off := len(journalMagic)
	// skip header frame
	frames := -1
	for off+frameHeaderSize <= cut {
		n := int(uint32(full[off+1]) | uint32(full[off+2])<<8 | uint32(full[off+3])<<16 | uint32(full[off+4])<<24)
		if off+frameHeaderSize+n > cut {
			break
		}
		off += frameHeaderSize + n
		frames++
	}
	if frames < 0 {
		return 0
	}
	return frames
}

// TestCorruptMiddleRecord: a bit flip inside an early record must stop
// recovery at the last record before it — never emit the corrupted
// record or anything after it.
func TestCorruptMiddleRecord(t *testing.T) { forEachSync(t, testCorruptMiddleRecord) }

func testCorruptMiddleRecord(t *testing.T, opts Options) {
	dir := t.TempDir()
	writeJournal(t, dir, opts, 4, false)
	path := filepath.Join(dir, testID[:2], testID+walSuffix)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside record 2's payload: locate frame offsets.
	off := len(journalMagic)
	for skip := 0; skip < 3; skip++ { // header + records 0,1
		n := int(uint32(full[off+1]) | uint32(full[off+2])<<8 | uint32(full[off+3])<<16 | uint32(full[off+4])<<24)
		off += frameHeaderSize + n
	}
	full[off+frameHeaderSize+5] ^= 0xff
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Load(testID)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records (truncated=%v), want exactly 2, truncated",
			len(rec.Records), rec.Truncated)
	}
	want := payloads(4)
	for i := 0; i < 2; i++ {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("surviving record %d diverges", i)
		}
	}
}

// TestCommitMarkerContract: a commit marker that contradicts the log
// (log truncated after commit) is ErrCorrupt; a commit frame without
// its marker (crash between frame write and rename) recovers as
// incomplete with the commit frame dropped.
func TestCommitMarkerContract(t *testing.T) { forEachSync(t, testCommitMarkerContract) }

func testCommitMarkerContract(t *testing.T, opts Options) {
	dir := t.TempDir()
	writeJournal(t, dir, opts, 3, true)
	wal := filepath.Join(dir, testID[:2], testID+walSuffix)
	okf := filepath.Join(dir, testID[:2], testID+okSuffix)

	t.Run("marker-without-full-log", func(t *testing.T) {
		full, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal, full[:len(full)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(testID); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for marker/log disagreement, got %v", err)
		}
		if err := os.WriteFile(wal, full, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("commit-frame-without-marker", func(t *testing.T) {
		if err := os.Remove(okf); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Load(testID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Complete || len(rec.Records) != 3 {
			t.Fatalf("complete=%v records=%d, want incomplete with 3 records",
				rec.Complete, len(rec.Records))
		}
		// The journal must accept a recommit.
		j, _, err := s.OpenAppend(testID)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit([]byte(`{"done":"again"}`)); err != nil {
			t.Fatal(err)
		}
		rec, err = s.Load(testID)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Complete || string(rec.Final) != `{"done":"again"}` {
			t.Fatalf("recommit not recovered: complete=%v final=%q", rec.Complete, rec.Final)
		}
	})
}

// TestCommitSyncFailure: with Sync on, a commit whose fsync fails
// returns the error and never renames the marker in, so the journal
// stays incomplete and a later owner recommits it; with Sync off,
// Commit calls no fsync, so the same file cannot fail it. The write
// end of a pipe accepts the commit frame but refuses fsync (EINVAL).
func TestCommitSyncFailure(t *testing.T) {
	forEachSync(t, func(t *testing.T, opts Options) {
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Create(testID, []byte(`{"header":true}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(keyOf(0), payloads(1)[0]); err != nil {
			t.Fatal(err)
		}
		pr, pw, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Close()
		wal := j.f
		j.f = pw
		err = j.Commit([]byte(`{"done":true}`))
		_ = wal.Close()
		_, statErr := os.Stat(s.okPath(testID))
		if !opts.Sync {
			if err != nil {
				t.Fatalf("commit with Sync off failed on an unsyncable file: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatal("commit with Sync on swallowed a failed fsync")
		}
		if !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("commit marker renamed in after a failed fsync (stat: %v)", statErr)
		}
		_ = j.Close()
		j2, rec, err := s.OpenAppend(testID)
		if err != nil {
			t.Fatalf("journal not resumable after a failed commit: %v", err)
		}
		if rec.Complete || len(rec.Records) != 1 {
			t.Fatalf("complete=%v records=%d, want incomplete with 1 record", rec.Complete, len(rec.Records))
		}
		if err := j2.Commit([]byte(`{"done":true}`)); err != nil {
			t.Fatal(err)
		}
		if rec, err := s.Load(testID); err != nil || !rec.Complete {
			t.Fatalf("recommit not recovered: %v", err)
		}
	})
}

func TestOpenAppendRefusesCommitted(t *testing.T) {
	dir := t.TempDir()
	s := writeJournal(t, dir, Options{}, 2, true)
	if _, _, err := s.OpenAppend(testID); !errors.Is(err, ErrExists) {
		t.Fatalf("OpenAppend on a committed journal: %v, want ErrExists", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	s := writeJournal(t, dir, Options{}, 1, false)
	if _, err := s.Create(testID, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over an existing journal: %v, want ErrExists", err)
	}
}

func TestStoreEviction(t *testing.T) { forEachSync(t, testStoreEviction) }

func testStoreEviction(t *testing.T, opts Options) {
	dir := t.TempDir()
	opts.MaxBytes = 600
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, commit bool) string {
		id := fmt.Sprintf("%064x", 0xe0+i)
		j, err := s.Create(id, []byte(`{"h":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(fmt.Sprintf("%064x", 0xf0+i), bytes.Repeat([]byte("x"), 120)); err != nil {
			t.Fatal(err)
		}
		if commit {
			if err := j.Commit(nil); err != nil {
				t.Fatal(err)
			}
		} else if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// Distinct commit mtimes so LRU order is deterministic.
		now := time.Now().Add(time.Duration(i) * time.Second)
		_ = os.Chtimes(filepath.Join(dir, id[:2], id+okSuffix), now, now)
		_ = os.Chtimes(filepath.Join(dir, id[:2], id+walSuffix), now, now)
		s.mu.Lock()
		if ji := s.journals[id]; ji != nil {
			ji.mtime = now
		}
		s.mu.Unlock()
		return id
	}
	incomplete := mk(0, false)
	var complete []string
	for i := 1; i <= 5; i++ {
		complete = append(complete, mk(i, true))
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()

	if _, err := s.Load(incomplete); err != nil {
		t.Fatalf("incomplete journal evicted: %v", err)
	}
	_, bytesNow := s.Stats()
	if bytesNow > 600+200 { // one in-flight journal may keep it slightly over
		t.Fatalf("store holds %d bytes, budget 600", bytesNow)
	}
	if _, err := s.Load(complete[len(complete)-1]); err != nil {
		t.Fatalf("newest complete journal evicted: %v", err)
	}
	if _, err := s.Load(complete[0]); !errors.Is(err, ErrNotExist) {
		t.Fatalf("oldest complete journal not evicted: %v", err)
	}
	// The index forgets an evicted journal at once: the service answers
	// on-disk lookups from it.
	if exists, _ := s.Lookup(complete[0]); exists {
		t.Fatal("Lookup still reports the evicted journal")
	}
	if exists, done := s.Lookup(incomplete); !exists || done {
		t.Fatalf("Lookup(incomplete) = %v, %v; want an incomplete journal", exists, done)
	}
	// An evicted journal's keys leave the index with it; the newest
	// journal's key still serves.
	if _, ok := s.Get(fmt.Sprintf("%064x", 0xf0+1)); ok {
		t.Fatal("Get serves a key of the evicted journal")
	}
	if _, ok := s.Get(fmt.Sprintf("%064x", 0xf0+5)); !ok {
		t.Fatal("Get misses a key of the newest journal")
	}
}

// TestKeyIndex: a committed journal's records are served by key, from
// the commit marker, in this process and after a reopen; an uncommitted
// journal's keys are not, and a removed journal's keys go with it.
func TestKeyIndex(t *testing.T) { forEachSync(t, testKeyIndex) }

func testKeyIndex(t *testing.T, opts Options) {
	dir := t.TempDir()
	s := writeJournal(t, dir, opts, 3, true)
	want := payloads(3)
	check := func(s *Store, when string) {
		t.Helper()
		for i := range want {
			if got, ok := s.Get(keyOf(i)); !ok || !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: Get(key %d) = %q, %v; want record %d", when, i, got, ok, i)
			}
		}
	}
	check(s, "after commit")

	open := fmt.Sprintf("%064x", 0xcafe)
	j, err := s.Create(open, []byte(`{"header":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(keyOf(9), []byte(`{"uncommitted":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "after reopen")
	if _, ok := s2.Get(keyOf(9)); ok {
		t.Fatal("Get serves a record of an uncommitted journal")
	}
	if err := s2.Remove(testID); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if _, ok := s2.Get(keyOf(i)); ok {
			t.Fatalf("Get(key %d) still serves after Remove", i)
		}
	}
}

// TestKeyIndexChecksRecordKey: an index entry is served only when the
// record it points at carries the requested key and passes its CRC. A
// marker whose entries point at each other's records makes both keys
// misses, while the journal itself still loads; a flipped byte in a
// record makes its key a miss.
func TestKeyIndexChecksRecordKey(t *testing.T) { forEachSync(t, testKeyIndexChecksRecordKey) }

func testKeyIndexChecksRecordKey(t *testing.T, opts Options) {
	dir := t.TempDir()
	writeJournal(t, dir, opts, 3, true)
	okf := filepath.Join(dir, testID[:2], testID+okSuffix)
	raw, err := os.ReadFile(okf)
	if err != nil {
		t.Fatal(err)
	}
	size, keys, err := parseMarker(raw, maphash.MakeSeed())
	if err != nil || len(keys) != 3 {
		t.Fatalf("marker lists %d keys (%v), want 3", len(keys), err)
	}
	swapped := []keyedRecord{{keyOf(0), keys[1].off}, {keyOf(1), keys[0].off}, {keyOf(2), keys[2].off}}
	if err := os.WriteFile(okf, formatMarker(size, swapped), 0o644); err != nil {
		t.Fatal(err)
	}
	// Without the manifest's copy of the marker, Open indexes the
	// rewritten one.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, ok := s.Get(keyOf(i)); ok {
			t.Fatalf("Get(key %d) served another key's record %q", i, got)
		}
	}
	if got, ok := s.Get(keyOf(2)); !ok || !bytes.Equal(got, payloads(3)[2]) {
		t.Fatalf("Get(key 2) = %q, %v; want its record", got, ok)
	}
	if rec, err := s.Load(testID); err != nil || !rec.Complete || len(rec.Records) != 3 {
		t.Fatalf("journal with a mis-pointing marker does not load: %v", err)
	}

	wal := filepath.Join(dir, testID[:2], testID+walSuffix)
	log, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	log[keys[2].off+frameHeaderSize+1+int64(len(keyOf(2)))] ^= 0xff
	if err := os.WriteFile(wal, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(keyOf(2)); ok {
		t.Fatalf("Get(key 2) served a record that fails its CRC: %q", got)
	}
}

// TestOldMarkerStillLoads: a journal from before records were keyed —
// plain record frames and a marker holding only the committed size —
// loads complete with keyless records, indexes nothing, and refuses
// appends like any committed journal.
func TestOldMarkerStillLoads(t *testing.T) { forEachSync(t, testOldMarkerStillLoads) }

func testOldMarkerStillLoads(t *testing.T, opts Options) {
	dir := t.TempDir()
	var log bytes.Buffer
	log.WriteString(journalMagic)
	if err := writeFrame(&log, kindHeader, []byte(`{"header":true}`)); err != nil {
		t.Fatal(err)
	}
	want := payloads(3)
	for _, p := range want {
		if err := writeFrame(&log, kindRecord, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFrame(&log, kindCommit, []byte(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, testID[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, testID+walSuffix), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, testID+okSuffix), []byte(fmt.Sprintf("%d\n", log.Len())), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Load(testID)
	if err != nil {
		t.Fatalf("old-format journal: %v", err)
	}
	if !rec.Complete || len(rec.Records) != len(want) || string(rec.Final) != `{"done":true}` {
		t.Fatalf("complete=%v records=%d final=%q", rec.Complete, len(rec.Records), rec.Final)
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) || rec.Keys[i] != "" {
			t.Fatalf("record %d: %q key %q", i, rec.Records[i], rec.Keys[i])
		}
	}
	if _, _, err := s.OpenAppend(testID); !errors.Is(err, ErrExists) {
		t.Fatalf("OpenAppend on a committed old-format journal: %v, want ErrExists", err)
	}
	s.mu.Lock()
	indexed := len(s.keys)
	s.mu.Unlock()
	if indexed != 0 {
		t.Fatalf("old-format marker indexed %d keys", indexed)
	}
}

// TestStaleMarkerDropped: a marker left without its log (a removal cut
// short between the two files) is dropped at Open, so a later journal
// of the same id that stops before committing recovers as incomplete —
// not as a committed journal whose marker disagrees with its log.
func TestStaleMarkerDropped(t *testing.T) { forEachSync(t, testStaleMarkerDropped) }

func testStaleMarkerDropped(t *testing.T, opts Options) {
	dir := t.TempDir()
	writeJournal(t, dir, opts, 3, true)
	if err := os.Remove(filepath.Join(dir, testID[:2], testID+walSuffix)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyOf(0)); ok {
		t.Fatal("a marker without its log published its keys")
	}
	j, err := s.Create(testID, []byte(`{"header":"again"}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads(2) {
		if err := j.Append(keyOf(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Load(testID)
	if err != nil {
		t.Fatalf("later journal of a stale marker's id: %v", err)
	}
	if rec.Complete || len(rec.Records) != 2 || string(rec.Header) != `{"header":"again"}` {
		t.Fatalf("complete=%v records=%d header=%q; want the incomplete 2-record journal",
			rec.Complete, len(rec.Records), rec.Header)
	}
	if exists, complete := s2.Lookup(testID); !exists || complete {
		t.Fatalf("Lookup = %v, %v; want an incomplete journal", exists, complete)
	}
}

func TestValidID(t *testing.T) {
	good := []string{"abcdef12", testID}
	bad := []string{"", "short", "ABCDEF12", "../../etc/passwd", "abcdef1g", "abc def12"}
	for _, id := range good {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false", id)
		}
	}
	for _, id := range bad {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
	}
}
