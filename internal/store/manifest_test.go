package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenKeepsLatestCommit: when two committed journals hold one key,
// a reopened store points it at the later commit, as the running store
// did, whether Open takes the markers from the manifest or reads them
// directly. The ids sort against commit order, so removing the earlier
// journal leaves the key served by the later one.
func TestOpenKeepsLatestCommit(t *testing.T) { forEachSync(t, testOpenKeepsLatestCommit) }

func testOpenKeepsLatestCommit(t *testing.T, opts Options) {
	earlier, later := strings.Repeat("f", 64), strings.Repeat("0", 64)
	recs := payloads(2)
	check := func(s *Store, when string) {
		t.Helper()
		if got, ok := s.Get(keyOf(0)); !ok || !bytes.Equal(got, recs[1]) {
			t.Fatalf("%s: Get = %q, %v; want the later commit's record %q", when, got, ok, recs[1])
		}
	}
	for _, from := range []string{"manifest", "markers"} {
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range []string{earlier, later} {
			j, err := s.Create(id, []byte(`{"header":true}`))
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(keyOf(0), recs[i]); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(nil); err != nil {
				t.Fatal(err)
			}
			// Log mtimes a second apart, for the marker scan.
			at := time.Now().Add(time.Duration(i-2) * time.Second)
			if err := os.Chtimes(s.walPath(id), at, at); err != nil {
				t.Fatal(err)
			}
		}
		check(s, "before a reopen")
		if from == "markers" {
			if err := os.Remove(s.manifestPath()); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(s2, "reopened from the "+from)
		if err := s2.Remove(earlier); err != nil {
			t.Fatal(err)
		}
		check(s2, "reopened from the "+from+", earlier journal removed")
	}
}

// The random histories draw journal ids from historyIDs ids, few enough
// that ids are removed and committed again, spread across fanout
// directories against their creation order; and record keys from
// historyKeys keys, so journals share keys.
const (
	historyIDs  = 10
	historyKeys = 8
)

func historyID(i int) string  { return fmt.Sprintf("%02x%062x", (255-i*23)%256, i) }
func historyKey(i int) string { return fmt.Sprintf("%064x", 0xabc0+i) }

// runHistory drives s through ops random Create, Append, Commit, Close,
// OpenAppend and Remove calls; then it commits every journal left
// uncommitted, leaves one new journal uncommitted and commits one id
// again under another header, with every journal closed and the byte
// budget enforced. After each commit it checks that the manifest holds
// at most two entries per live journal, and sets the log's mtime to the
// commit time the manifest records, so a marker scan orders commits as
// the manifest does. It returns the number of commits.
func runHistory(t *testing.T, s *Store, rng *rand.Rand, ops int) int {
	t.Helper()
	open := map[string]*Journal{}
	gen, commits := 0, 0
	create := func(id, header string) {
		j, err := s.Create(id, []byte(header))
		if err != nil {
			t.Fatal(err)
		}
		open[id] = j
	}
	appendTo := func(id string) {
		gen++
		key := historyKey(rng.Intn(historyKeys))
		if err := open[id].Append(key, []byte(fmt.Sprintf(`{"journal":%q,"gen":%d}`, id[:8], gen))); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(id string) {
		if err := open[id].Commit([]byte(`{"done":true}`)); err != nil {
			t.Fatal(err)
		}
		delete(open, id)
		commits++
		s.mfMu.Lock()
		frames, size := s.mfFrames, s.mfSize
		s.mfMu.Unlock()
		s.mu.Lock()
		live, at := s.committed, s.journals[id].mtime
		s.mu.Unlock()
		if frames > 2*live {
			t.Fatalf("manifest holds %d entries for %d live journals", frames, live)
		}
		if fi, err := os.Stat(s.manifestPath()); err != nil || fi.Size() != size {
			t.Fatalf("manifest file: %v, want %d bytes of whole frames", err, size)
		}
		if err := os.Chtimes(s.walPath(id), at, at); err != nil {
			t.Fatal(err)
		}
	}
	closeAll := func() {
		for id, j := range open {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			delete(open, id)
		}
	}
	for n := 0; n < ops; n++ {
		id, op := historyID(rng.Intn(historyIDs)), rng.Intn(10)
		if open[id] == nil {
			exists, complete := s.Lookup(id)
			switch {
			case !exists:
				gen++
				create(id, fmt.Sprintf(`{"header":%d}`, gen))
			case !complete && op < 6:
				j, _, err := s.OpenAppend(id)
				if err != nil {
					t.Fatal(err)
				}
				open[id] = j
			case !complete && op < 8, op < 2:
				if err := s.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		switch {
		case op < 5:
			appendTo(id)
		case op < 9:
			commit(id)
		default:
			if err := open[id].Close(); err != nil {
				t.Fatal(err)
			}
			delete(open, id)
		}
	}
	closeAll()
	// Commit what is left uncommitted, so the budget holds committed
	// journals at the end.
	for i := 0; i < historyIDs; i++ {
		if id := historyID(i); !isCommitted(s, id) {
			if exists, _ := s.Lookup(id); exists {
				j, _, err := s.OpenAppend(id)
				if err != nil {
					t.Fatal(err)
				}
				open[id] = j
				commit(id)
			}
		}
	}
	// One journal left uncommitted, on an id the history never used.
	pending := historyID(historyIDs)
	create(pending, `{"header":"pending"}`)
	appendTo(pending)
	closeAll()
	// One committed id removed and committed again under another header.
	for i := 0; i < historyIDs; i++ {
		if id := historyID(i); isCommitted(s, id) {
			if err := s.Remove(id); err != nil {
				t.Fatal(err)
			}
			create(id, `{"header":"again"}`)
			appendTo(id)
			commit(id)
			break
		}
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return commits
}

func isCommitted(s *Store, id string) bool {
	_, complete := s.Lookup(id)
	return complete
}

// journalState is what the index holds for one journal.
type journalState struct {
	Size     int64
	Complete bool
}

// storeView is the index a Store holds: every journal's size and
// completeness, the byte total, and where each history key points.
type storeView struct {
	Journals map[string]journalState
	Bytes    int64
	Keys     map[string]recordLoc
}

func viewOf(s *Store) storeView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := storeView{Journals: map[string]journalState{}, Bytes: s.bytes, Keys: map[string]recordLoc{}}
	for id, ji := range s.journals {
		v.Journals[id] = journalState{ji.size, ji.complete}
	}
	for i := 0; i < historyKeys; i++ {
		if loc, ok := s.keys[maphash.String(s.seed, historyKey(i))]; ok {
			v.Keys[historyKey(i)] = loc
		}
	}
	return v
}

// answersOf renders what s answers for every history key and id: Get,
// Lookup and Load.
func answersOf(s *Store) []string {
	var out []string
	for i := 0; i < historyKeys; i++ {
		rec, ok := s.Get(historyKey(i))
		out = append(out, fmt.Sprintf("Get(%d) = %q %v", i, rec, ok))
	}
	for i := 0; i <= historyIDs; i++ {
		id := historyID(i)
		exists, complete := s.Lookup(id)
		rec, err := s.Load(id)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: Lookup %v %v, Load error %v", id[:8], exists, complete, err))
			continue
		}
		out = append(out, fmt.Sprintf("%s: Lookup %v %v, Load header %q records %q keys %q complete %v final %q truncated %v",
			id[:8], exists, complete, rec.Header, rec.Records, rec.Keys, rec.Complete, rec.Final, rec.Truncated))
	}
	return out
}

// copyDir copies a store directory, keeping each file's mtime: a marker
// scan orders commits by log mtime.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, raw, 0o644); err != nil {
			return err
		}
		return os.Chtimes(to, fi.ModTime(), fi.ModTime())
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// manifestLacks returns the ids the manifest in dir holds no live entry
// for, and whether its tail is torn.
func manifestLacks(dir string, ids []string) (missing []string, torn bool) {
	refs := map[string]markerRef{}
	for _, id := range ids {
		refs[id] = markerRef{entry: -1}
	}
	_, torn = (&Store{dir: dir, seed: maphash.MakeSeed()}).readManifest(refs)
	for id, m := range refs {
		if m.entry < 0 {
			missing = append(missing, id)
		}
	}
	return missing, torn
}

// manifestFrames returns the offset of every whole frame in a manifest,
// and the journal id each frame names.
func manifestFrames(raw []byte) (starts []int64, ids []string) {
	r := &reader{r: bytes.NewReader(raw[len(manifestMagic):]), off: int64(len(manifestMagic))}
	for {
		start := r.off
		_, payload, ok := r.next()
		if !ok {
			return starts, ids
		}
		id, _, _ := splitKeyed(payload)
		starts, ids = append(starts, start), append(ids, id)
	}
}

// TestManifestOpenMatchesMarkerScan: over random histories of Create,
// Append, Commit, Close, OpenAppend and Remove, with evictions under a
// small byte budget, Open from the commit manifest rebuilds the index a
// scan of the markers alone rebuilds (the manifest deleted: the layout
// from before it), and answers Get, Load and Lookup alike. So it does
// with the manifest cut at every offset of its last frame, with an
// entry whose marker was never renamed, and with a marker that has no
// entry; the Open that finds the damage rewrites the manifest whole.
// The running store's key index agrees with the reopened one, and the
// manifest stays within two entries per live journal throughout.
func TestManifestOpenMatchesMarkerScan(t *testing.T) {
	forEachSync(t, testManifestOpenMatchesMarkerScan)
}

func testManifestOpenMatchesMarkerScan(t *testing.T, opts Options) {
	opts.MaxBytes = 2000
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			commits := runHistory(t, s, rand.New(rand.NewSource(seed)), 300)
			if _, evictions := s.Counters(); evictions == 0 || commits <= 2*(historyIDs+1) {
				t.Fatalf("history made %d commits and %d evictions; want evictions, and more commits than the manifest may hold", commits, evictions)
			}

			scan := copyDir(t, dir)
			if err := os.Remove(filepath.Join(scan, manifestName)); err != nil {
				t.Fatal(err)
			}
			ref, err := Open(scan, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantAnswers := viewOf(ref), answersOf(ref)
			run := viewOf(s)
			if !reflect.DeepEqual(run.Journals, want.Journals) || run.Bytes != want.Bytes {
				t.Fatalf("marker scan holds journals %v (%d bytes); the running store %v (%d bytes)",
					want.Journals, want.Bytes, run.Journals, run.Bytes)
			}
			for key, loc := range run.Keys {
				if want.Keys[key] != loc {
					t.Fatalf("key %s: running store points at %v, marker scan at %v", key[60:], loc, want.Keys[key])
				}
			}

			manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			starts, ids := manifestFrames(manifest)
			last := map[string]int{} // each id's last frame: a committed journal's entry
			for i, id := range ids {
				last[id] = i
			}
			var live []int
			for id, i := range last {
				if isCommitted(ref, id) {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				t.Fatal("history left no committed journal")
			}
			sort.Ints(live)
			mid, end := live[len(live)/2], int64(len(manifest))
			if mid+1 < len(starts) {
				end = starts[mid+1]
			}
			// An entry for the uncommitted journal: a commit cut short
			// after its manifest append, before its marker rename.
			var orphan bytes.Buffer
			if err := writeFrame(&orphan, kindKeyed, entryPayload(historyID(historyIDs), time.Now(), []byte("40\n"))); err != nil {
				t.Fatal(err)
			}
			damaged := map[string][]byte{
				"whole":                manifest,
				"entry-without-marker": append(append([]byte(nil), manifest...), orphan.Bytes()...),
				"marker-without-entry": append(append([]byte(nil), manifest[:starts[mid]]...), manifest[end:]...),
			}
			for cut := starts[len(starts)-1]; cut < int64(len(manifest)); cut++ {
				damaged[fmt.Sprintf("cut-at-%d", cut)] = manifest[:cut]
			}
			// Open changes no journal file here (the history left no
			// orphan marker and nothing over budget), so one copy serves
			// every variant.
			d := copyDir(t, dir)
			for name, raw := range damaged {
				if err := os.WriteFile(filepath.Join(d, manifestName), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"damaged", "rewritten"} {
					got, err := Open(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					if v := viewOf(got); !reflect.DeepEqual(v, want) {
						t.Fatalf("%s, %s: manifest Open holds\n%+v\nmarker scan holds\n%+v", name, pass, v, want)
					}
					if a := answersOf(got); !reflect.DeepEqual(a, wantAnswers) {
						t.Fatalf("%s, %s: manifest Open answers\n%s\nmarker scan answers\n%s",
							name, pass, strings.Join(a, "\n"), strings.Join(wantAnswers, "\n"))
					}
				}
				// After the Open that found the damage, every committed
				// journal has an entry and no tail is torn.
				var committed []string
				for id, js := range want.Journals {
					if js.Complete {
						committed = append(committed, id)
					}
				}
				if missing, torn := manifestLacks(d, committed); len(missing) > 0 || torn {
					t.Fatalf("%s: rewritten manifest lacks %d committed journals (torn tail %v)", name, len(missing), torn)
				}
			}
		})
	}
}

// TestConcurrentCommitsReopen: journals that share keys, committed from
// several goroutines at once under a byte budget that evicts, reopen
// with the running store's index: the manifest's order is the index's.
func TestConcurrentCommitsReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxBytes: 6000}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("%02x%062x", (w*each+i)*37%256, w*each+i)
				j, err := s.Create(id, []byte(`{"header":true}`))
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 3; k++ {
					if err := j.Append(historyKey((w+i+k)%historyKeys), []byte(id)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := j.Commit(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run, got := viewOf(s), viewOf(s2); !reflect.DeepEqual(run, got) {
		t.Fatalf("reopened index\n%+v\ndiffers from the running store's\n%+v", got, run)
	}
}

// TestManifestAppendFailure: a commit whose manifest append fails
// returns the error before its marker rename, so the journal stays
// uncommitted and resumable; and bytes a failed append left past the
// last whole frame are cut off by the next append, so a reopen finds
// every entry and no torn tail.
func TestManifestAppendFailure(t *testing.T) { forEachSync(t, testManifestAppendFailure) }

func testManifestAppendFailure(t *testing.T, opts Options) {
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(id string) error {
		t.Helper()
		j, err := s.Create(id, []byte(`{"header":true}`))
		if errors.Is(err, ErrExists) {
			j, _, err = s.OpenAppend(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(keyOf(0), []byte(id)); err != nil {
			t.Fatal(err)
		}
		err = j.Commit(nil)
		if err != nil {
			_ = j.Close()
		}
		return err
	}
	a, b, c := historyID(0), historyID(1), historyID(2)
	if err := commit(a); err != nil {
		t.Fatal(err)
	}
	// A frame cut short, as a failed append leaves it, longer than the
	// next append's.
	f, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append([]byte{kindKeyed, 0, 4, 0, 0, 1, 2, 3, 4}, bytes.Repeat([]byte{9}, 600)...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := commit(b); err != nil {
		t.Fatal(err)
	}

	// A manifest that cannot be opened for writing fails the commit.
	aside := filepath.Join(dir, "aside")
	if err := os.Rename(s.manifestPath(), aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(s.manifestPath(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := commit(c); err == nil {
		t.Fatal("commit succeeded though its manifest append failed")
	}
	if _, err := os.Stat(s.okPath(c)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("marker renamed in after a failed manifest append (stat: %v)", err)
	}
	if exists, complete := s.Lookup(c); !exists || complete {
		t.Fatalf("Lookup = %v, %v after a failed commit; want an uncommitted journal", exists, complete)
	}
	if err := os.Remove(s.manifestPath()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, s.manifestPath()); err != nil {
		t.Fatal(err)
	}
	if err := commit(c); err != nil {
		t.Fatalf("recommit after the manifest came back: %v", err)
	}

	if missing, torn := manifestLacks(dir, []string{a, b, c}); len(missing) > 0 || torn {
		t.Fatalf("manifest lacks %d of 3 journals (torn tail %v)", len(missing), torn)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a, b, c} {
		if exists, complete := s2.Lookup(id); !exists || !complete {
			t.Fatalf("reopened: Lookup(%s) = %v, %v; want committed", id[:8], exists, complete)
		}
	}
	if got, ok := s2.Get(keyOf(0)); !ok || string(got) != c {
		t.Fatalf("reopened: Get = %q, %v; want the last commit's record", got, ok)
	}
}
