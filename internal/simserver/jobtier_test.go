package simserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"taskalloc/internal/store"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// reuseJob is one cheap cell of the job-tier tests.
func reuseJob(gamma float64, seed uint64) wire.Job {
	return wire.Job{
		Meta:   []string{"gamma", strconv.FormatFloat(gamma, 'g', -1, 64), "seed", strconv.FormatUint(seed, 10)},
		Rounds: 120,
		Config: wire.Config{Ants: 160, Demands: []int{30, 50}, Gamma: gamma, Seed: seed, Shards: 1},
	}
}

// reuseGrid is a 6-cell (γ × seed) grid.
func reuseGrid() wire.Sweep {
	sw := wire.Sweep{Version: wire.V1}
	for _, gamma := range []float64{0.02, 0.04} {
		for seed := uint64(1); seed <= 3; seed++ {
			sw.Jobs = append(sw.Jobs, reuseJob(gamma, seed))
		}
	}
	return sw
}

// postSweep POSTs a sweep with the given query string ("" for none)
// and returns the response with its body; non-200 is fatal.
func postSweep(t *testing.T, base string, sweep wire.Sweep, query string) (*http.Response, []byte) {
	t.Helper()
	blob, err := wire.MarshalSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/v1/sweeps"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	return resp, body
}

// TestSweepReusesJobResults: a grid B that shares non-contiguous cells
// with an earlier grid A simulates only its new cells plus the shared
// job that asks for a trajectory (the tier holds reports only), and its
// body — NDJSON or CSV, at one worker or four — is byte-identical to B
// posted to a fresh server.
func TestSweepReusesJobResults(t *testing.T) {
	a := reuseGrid()
	traj := a.Jobs[0]
	traj.Trajectory = true
	b := wire.Sweep{Version: wire.V1, Jobs: []wire.Job{
		reuseJob(0.03, 1), a.Jobs[1], traj, a.Jobs[3], reuseJob(0.03, 2), a.Jobs[5], reuseJob(0.05, 9),
	}}
	const shared, mustRun = 3, 4 // A's cells 1, 3, 5 | three new cells + the trajectory job

	for _, format := range []string{"ndjson", "csv"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", format, workers), func(t *testing.T) {
				query := fmt.Sprintf("format=%s&workers=%d", format, workers)
				srv := New(Options{Workers: 2})
				ts := httptest.NewServer(srv)
				defer func() {
					ts.Close()
					srv.Close()
				}()
				postSweep(t, ts.URL, a, "")
				runs0 := srv.metrics.stageEngineRun.Count()
				hits0 := srv.metrics.sweepJobHits.Value()
				resp, got := postSweep(t, ts.URL, b, query)
				if d := resp.Header.Get("X-Cache"); d != "miss" {
					t.Fatalf("X-Cache = %q, want miss (the sweep itself is new)", d)
				}
				if runs := srv.metrics.stageEngineRun.Count() - runs0; runs != mustRun {
					t.Fatalf("grid B ran %d simulations, want %d", runs, mustRun)
				}
				if hits := srv.metrics.sweepJobHits.Value() - hits0; hits != shared {
					t.Fatalf("sweep job-cache hits = %d, want %d", hits, shared)
				}

				ref := New(Options{Workers: 2})
				rts := httptest.NewServer(ref)
				defer func() {
					rts.Close()
					ref.Close()
				}()
				_, want := postSweep(t, rts.URL, b, query)
				if !bytes.Equal(got, want) {
					t.Fatalf("reused body differs from a fresh server's:\n--- reused\n%s--- fresh\n%s", got, want)
				}
				if hits := ref.metrics.sweepJobHits.Value(); hits != 0 {
					t.Fatalf("fresh server reported %d job-cache hits", hits)
				}
			})
		}
	}
}

// TestConcurrentOverlappingSweeps: grids that share cells, posted at
// once, read and warm the job tier from several requests at a time;
// every body still equals the one a fresh server renders for its grid.
func TestConcurrentOverlappingSweeps(t *testing.T) {
	pool := reuseGrid().Jobs
	subsets := [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}, {5, 3, 1}, {4, 0, 1, 2, 5}}
	grids := make([]wire.Sweep, len(subsets))
	want := make([][]byte, len(subsets))
	for k, idx := range subsets {
		grids[k] = wire.Sweep{Version: wire.V1}
		for _, i := range idx {
			grids[k].Jobs = append(grids[k].Jobs, pool[i])
		}
		ref := New(Options{Workers: 2})
		ts := httptest.NewServer(ref)
		_, want[k] = postSweep(t, ts.URL, grids[k], "workers=2")
		ts.Close()
		ref.Close()
	}

	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	got := make([][]byte, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for k := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, err := wire.MarshalSweep(grids[k])
			if err != nil {
				errs[k] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/sweeps?workers=2", "application/json", bytes.NewReader(blob))
			if err != nil {
				errs[k] = err
				return
			}
			defer resp.Body.Close()
			got[k], errs[k] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for k := range grids {
		if errs[k] != nil {
			t.Fatalf("grid %d: %v", k, errs[k])
		}
		if !bytes.Equal(got[k], want[k]) {
			t.Fatalf("grid %d body differs from a fresh server's:\n--- concurrent\n%s--- fresh\n%s", k, got[k], want[k])
		}
	}
	var cells uint64
	for _, g := range grids {
		cells += uint64(len(g.Jobs))
	}
	if h, m := srv.metrics.sweepJobHits.Value(), srv.metrics.sweepJobMisses.Value(); h+m != cells || m < uint64(len(pool)) {
		t.Fatalf("job-cache hits/misses %d/%d: want %d lookups, at least one miss per distinct job", h, m, cells)
	}
}

// holdCells seeds the memory tier as a published sweep does: a
// completed entry under id that holds cells.
func holdCells(s *Server, id string, cells ...cell) {
	e, _ := s.lookupOrCreate(id, "", len(cells))
	s.publish(e, cells, sweeprun.Summary{})
}

// TestKnownCellsMerge is the randomized check of the cell runner
// (runCells, driven through executeOwned's journaling and publish):
// over random splits of a grid into a recovered journal prefix,
// memory-tier cells, disk-tier cells (committed to another journal, so
// the store's key index serves them), and cells to simulate, at 1–4
// workers, every index is emitted once and in order, the journal holds
// one keyed record per cell in index order, only the unknown cells
// run, and the rendered bytes equal an all-fresh run.
func TestKnownCellsMerge(t *testing.T) {
	sweep := reuseGrid()
	sweep.Jobs = append(sweep.Jobs, reuseJob(0.03, 7))
	sweep.Jobs[2].Trajectory = true // never known from the tier
	n := len(sweep.Jobs)
	id, keys, err := wire.SemanticSweepKeys(sweep)
	if err != nil {
		t.Fatal(err)
	}
	synID, err := wire.SweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	// run executes the grid through executeOwned and renders it as the
	// NDJSON body.
	run := func(s *Server, prefix []cell, j *store.Journal, workers int) (order []int, body []byte, cells []cell) {
		t.Helper()
		var buf bytes.Buffer
		render := newBody(&buf, "ndjson", id, n, 0)
		entry, _ := s.lookupOrCreate(id, synID, n)
		if err := s.executeOwned(entry, grid{jobs: sweep.Jobs, keys: keys}, prefix, j, workers, func(i int, c cell) {
			order = append(order, i)
			render(i, c)
		}); err != nil {
			t.Fatal(err)
		}
		return order, buf.Bytes(), entry.cells
	}

	fresh := New(Options{Workers: 1})
	_, want, ref := run(fresh, nil, nil, 1)
	fresh.Close()

	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 24; trial++ {
		workers := 1 + trial%4
		prefix := rng.Intn(n + 1)
		s, err := Open(Options{Workers: workers, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoint the prefix, "crash", and recover it the way a
		// resuming request does.
		j := s.createJournal(id, synID, sweep)
		for i := 0; i < prefix; i++ {
			j = s.checkpoint(j, i, ref[i])
		}
		_ = j.Close()
		rec, err := s.loadJournal(id, true)
		if err != nil || len(rec.cells) != prefix {
			t.Fatalf("trial %d: recovered %d of %d prefix cells: %v", trial, len(rec.cells), prefix, err)
		}
		var memory, disk int
		var memoryCells, diskCells []cell
		for i := prefix; i < n; i++ {
			if sweep.Jobs[i].Trajectory {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				memoryCells = append(memoryCells, ref[i])
				memory++
			case 1:
				diskCells = append(diskCells, ref[i])
				disk++
			}
		}
		holdCells(s, fmt.Sprintf("%064x", trial+1), memoryCells...)
		sj := &searchJournal{s: s, id: fmt.Sprintf("%064x", trial+1)}
		sj.append(diskCells)
		sj.commit()

		order, body, _ := run(s, rec.cells, rec.journal, workers)
		where := fmt.Sprintf("trial %d (workers %d, prefix %d, memory %d, disk %d)", trial, workers, prefix, memory, disk)
		if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
			t.Fatalf("%s: emitted %v, want %v", where, order, want)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: merged body differs from an all-fresh run:\n--- merged\n%s--- fresh\n%s", where, body, want)
		}
		known := uint64(memory + disk)
		if runs := s.metrics.stageEngineRun.Count(); runs != uint64(n-prefix)-known {
			t.Fatalf("%s: %d simulations, want %d", where, runs, uint64(n-prefix)-known)
		}
		if h, m := s.metrics.sweepJobHits.Value(), s.metrics.sweepJobMisses.Value(); h != known || h+m != uint64(n-prefix) {
			t.Fatalf("%s: job-cache hits/misses %d/%d, want %d/%d", where, h, m, known, uint64(n-prefix)-known)
		}
		if got := s.metrics.jobCacheDiskHits.Value(); got != uint64(disk) {
			t.Fatalf("%s: disk hits %d, want %d", where, got, disk)
		}
		jr, err := s.store.Load(id)
		if err != nil || !jr.Complete || len(jr.Records) != n {
			t.Fatalf("%s: journal not committed with %d records: %v", where, n, err)
		}
		for i, raw := range jr.Records {
			var cr cellRecord
			if err := json.Unmarshal(raw, &cr); err != nil || cr.Index != i || jr.Keys[i] != keys[i] {
				t.Fatalf("%s: journal record %d: index %d key %.8s (err %v)", where, i, cr.Index, jr.Keys[i], err)
			}
		}
		s.mu.Lock()
		for i, k := range keys {
			if _, ok := s.index[k]; !ok {
				t.Errorf("%s: cell %d not in the memory tier after publish", where, i)
			}
		}
		s.mu.Unlock()
		s.Close()
	}
}

// TestRunCellsDecodesOnlyMisses: runCells decodes only the cells the
// job tier cannot serve — a fully warm round decodes none — and a
// decode error comes back before any cell is emitted. A cell is decoded
// exactly when an undecodable spelling of it, under the cell's own
// key, fails the round.
func TestRunCellsDecodesOnlyMisses(t *testing.T) {
	sweep := reuseGrid()
	n := len(sweep.Jobs)
	_, keys, err := wire.SemanticSweepKeys(sweep)
	if err != nil {
		t.Fatal(err)
	}
	// run drives the grid through runCells, cell bad (when >= 0) spelled
	// so that it does not decode, and returns the emitted cells, their
	// known flags and the error.
	run := func(s *Server, bad int) (cells []cell, known []bool, err error) {
		t.Helper()
		jobs := append([]wire.Job(nil), sweep.Jobs...)
		if bad >= 0 {
			jobs[bad].Config.Algorithm = "undecodable"
		}
		err = s.runCells(grid{jobs: jobs, keys: keys}, nil, s.metrics.bisectJobHits, s.metrics.bisectJobMisses, 2, func(i int, c cell, k bool) {
			if i != len(cells) {
				t.Fatalf("emitted cell %d after %d cells", i, len(cells))
			}
			cells = append(cells, c)
			known = append(known, k)
		})
		return cells, known, err
	}
	// decoded probes each cell alone and returns the ones runCells
	// decodes on s.
	decoded := func(s *Server) []int {
		t.Helper()
		out := []int{}
		for i := 0; i < n; i++ {
			if cells, _, err := run(s, i); err != nil {
				if len(cells) != 0 {
					t.Fatalf("decode failure: err %v after %d emitted cells, want it before any", err, len(cells))
				}
				out = append(out, i)
			}
		}
		return out
	}

	s := New(Options{Workers: 2})
	defer s.Close()
	ref, _, err := run(s, -1)
	if got := decoded(s); err != nil || !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("cold round decoded %v (err %v), want every cell", got, err)
	}

	// Warm every cell but 1 and 4: only those two are decoded.
	warm := func(cells ...int) {
		var held []cell
		for _, i := range cells {
			held = append(held, ref[i])
		}
		holdCells(s, fmt.Sprint(cells), held...)
	}
	warm(0, 2, 3, 5)
	cells, known, err := run(s, -1)
	if got := decoded(s); err != nil || !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("half-warm round decoded %v (err %v), want [1 4]", got, err)
	}
	if want := []bool{true, false, true, true, false, true}; !reflect.DeepEqual(known, want) {
		t.Fatalf("known = %v, want %v", known, want)
	}
	for i := range cells {
		if !reflect.DeepEqual(cells[i].report, ref[i].report) || !reflect.DeepEqual(cells[i].meta, ref[i].meta) {
			t.Fatalf("cell %d differs from the cold round", i)
		}
	}

	warm(1, 4)
	if cells, _, err = run(s, -1); err != nil || len(cells) != n {
		t.Fatalf("warm round emitted %d cells (err %v), want %d", len(cells), err, n)
	}
	if got := decoded(s); len(got) != 0 {
		t.Fatalf("warm round decoded %v, want none", got)
	}
}

// TestJournalReplayWarmsBisect: a sweep over a bisect's first-round γ
// points, replayed from its journal after a restart, warms the memory
// tier from the journal's keys, so the bisect that follows serves those
// cells from memory, without asking the store's key index.
func TestJournalReplayWarmsBisect(t *testing.T) {
	req := smallBisectRequest()
	sweep := wire.Sweep{Version: wire.V1}
	for _, gamma := range []float64{req.GammaLo, req.GammaHi} {
		j := req.Job
		j.Config.Gamma = gamma
		sweep.Jobs = append(sweep.Jobs, j)
	}
	dir := t.TempDir()
	srvA, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	_, first := postSweep(t, tsA.URL, sweep, "")
	tsA.Close()
	srvA.Close()

	srvB, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	resp, again := postSweep(t, tsB.URL, sweep, "")
	if d, hits := resp.Header.Get("X-Cache"), srvB.metrics.diskSweepHits.Value(); d != "hit" || hits != 1 {
		t.Fatalf("re-POST after restart: X-Cache %q, disk sweep hits %d; want a disk hit", d, hits)
	}
	if !bytes.Equal(again, first) {
		t.Fatal("replay after restart not byte-identical")
	}
	reports := map[float64][]byte{}
	for i, line := range bytes.Split(bytes.TrimSpace(first), []byte("\n"))[1:] {
		var res wire.Result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		reports[sweep.Jobs[i].Config.Gamma] = rep
	}

	out, code, msg := postBisect(t, tsB, req)
	if out == nil {
		t.Fatalf("bisect: HTTP %d: %s", code, msg)
	}
	for _, c := range out.Cells {
		want, covered := reports[c.Gamma]
		if c.Cached != covered {
			t.Fatalf("cell γ=%g cached=%v, want %v", c.Gamma, c.Cached, covered)
		}
		if got, _ := json.Marshal(c.Report); covered && !bytes.Equal(got, want) {
			t.Fatalf("cell γ=%g report differs from the sweep's:\n%s\n%s", c.Gamma, got, want)
		}
	}
	hits, diskHits := srvB.metrics.bisectJobHits.Value(), srvB.metrics.jobCacheDiskHits.Value()
	if hits != 2 || diskHits != 0 || out.CacheHits != 2 {
		t.Fatalf("bisect job hits %d (response %d), disk hits %d; want 2, 2, 0",
			hits, out.CacheHits, diskHits)
	}
}

// TestKeylessJournalReplays: a journal whose records carry no key (the
// format before records were keyed) still replays byte-identically —
// whole when committed, resumed when not. A keyless replay warms the
// tier with nothing; a resume keys every cell from the stored document.
func TestKeylessJournalReplays(t *testing.T) {
	sweep := reuseGrid()
	dir := t.TempDir()
	srvA, err := Open(Options{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	resp, want := postSweep(t, tsA.URL, sweep, "")
	id := resp.Header.Get("X-Sweep-Id")
	tsA.Close()
	srvA.Close()
	st, err := store.Open(filepath.Join(dir, "sweeps"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := st.Load(id)
	if err != nil || !keyed.Complete {
		t.Fatalf("golden journal: %v", err)
	}

	cases := []struct {
		name        string
		records     int
		commit      bool
		disposition string
		warm        int // memory-tier entries after the request
	}{
		{"complete", len(sweep.Jobs), true, "hit", 0},
		{"incomplete", 3, false, "resume", len(sweep.Jobs)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old, err := store.Open(filepath.Join(dir, "sweeps"), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			j, err := old.Create(id, keyed.Header)
			if err != nil {
				t.Fatal(err)
			}
			for i, raw := range keyed.Records[:tc.records] {
				if keyed.Keys[i] == "" {
					t.Fatalf("record %d carries no key; the test would be vacuous", i)
				}
				if bytes.Contains(raw, []byte(`"key"`)) {
					t.Fatalf("keyless record still names a key: %s", raw)
				}
				if err := j.Append("", raw); err != nil {
					t.Fatal(err)
				}
			}
			if tc.commit {
				err = j.Commit(keyed.Final)
			} else {
				err = j.Close()
			}
			if err != nil {
				t.Fatal(err)
			}

			srv, err := Open(Options{Workers: 2, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			resp, got := postSweep(t, ts.URL, sweep, "")
			if d := resp.Header.Get("X-Cache"); d != tc.disposition {
				t.Fatalf("X-Cache = %q, want %q", d, tc.disposition)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("keyless journal replay differs:\n--- replay\n%s--- golden\n%s", got, want)
			}
			srv.mu.Lock()
			warm := len(srv.index)
			srv.mu.Unlock()
			if warm != tc.warm {
				t.Fatalf("memory tier holds %d entries after the replay, want %d", warm, tc.warm)
			}
		})
	}
}
