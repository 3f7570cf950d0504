package gridcoord

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"taskalloc"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// The property layer: randomized steal granularities, per-line backend
// delays, and injected mid-stream aborts — every schedule must produce
// the same output bytes, deliver every job exactly once per attempt, and
// keep the stats ledger consistent with the observed events.

// propJob builds one deterministic sweep job; the fake backend's result
// is a pure function of it, so any backend computes identical bytes.
func propJob(seed uint64) wire.Job {
	return wire.Job{
		Meta:   []string{"seed", fmt.Sprint(seed)},
		Rounds: 100,
		Config: wire.Config{
			Ants:    100,
			Demands: []int{40, 50},
			Gamma:   1.0 / 32,
			Seed:    seed,
			Shards:  1,
		},
	}
}

// fakeCell is the deterministic per-job outcome the fake backends
// stream: dyadic floats only, so the JSON round trip through the
// merger is byte-stable by construction.
func fakeCell(local int, j wire.Job) wire.Result {
	seed := j.Config.Seed
	rep := taskalloc.Report{
		Rounds:      uint64(j.Rounds),
		TotalRegret: int64(seed * 7),
		AvgRegret:   float64(seed%97) / 8,
		StdRegret:   float64(seed%11) / 4,
		PeakRegret:  int(seed % 31),
		Closeness:   float64(seed%13) / 16,
		GammaStar:   1.0 / 16,
	}
	return wire.Result{Index: local, Meta: j.Meta, Report: &rep}
}

// fakeBackend serves POST /v1/sweeps with fakeCell lines, answering
// X-Cache: miss and flushing its headers and stream header before the
// first delay, as simserve does for a sweep it computes — so its chunks
// are eligible for backups. Per-iteration chaos knobs: a per-line
// delay, and a one-shot abort that kills the first stream after a
// chosen number of lines (the next request serves normally — the
// coordinator should have re-dispatched the remainder, or left it to a
// live twin).
type fakeBackend struct {
	mu         sync.Mutex
	lineDelay  time.Duration
	abortAfter int // lines before the one-shot abort; -1 = never
}

// arm resets the chaos knobs for one property iteration.
func (f *fakeBackend) arm(lineDelay time.Duration, abortAfter int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lineDelay = lineDelay
	f.abortAfter = abortAfter
}

func (f *fakeBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	sweep, err := wire.DecodeSweep(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	delay := f.lineDelay
	abortAt := -1
	if f.abortAfter >= 0 {
		abortAt = f.abortAfter
		f.abortAfter = -1
	}
	f.mu.Unlock()

	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", "miss")
	enc := json.NewEncoder(w)
	_ = enc.Encode(wire.StreamHeader{Version: wire.V1, ID: id, Jobs: len(sweep.Jobs)})
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for k, j := range sweep.Jobs {
		if abortAt >= 0 && k >= abortAt {
			if fl != nil {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		_ = enc.Encode(fakeCell(k, j))
		if fl != nil {
			fl.Flush()
		}
	}
}

// expectedNDJSON renders the single-host NDJSON response for the fake
// backend's deterministic results: the merged grid stream must equal
// it byte for byte under every schedule.
func expectedNDJSON(t *testing.T, sweep wire.Sweep) []byte {
	t.Helper()
	id, err := wire.SemanticSweepHash(sweep)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(wire.StreamHeader{Version: wire.V1, ID: id, Jobs: len(sweep.Jobs)}); err != nil {
		t.Fatal(err)
	}
	for i, j := range sweep.Jobs {
		if err := enc.Encode(fakeCell(i, j)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// expectedCSV is the single-host CSV rendering of the same results.
func expectedCSV(t *testing.T, sweep wire.Sweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(sweeprun.CSVHeader()); err != nil {
		t.Fatal(err)
	}
	for i, j := range sweep.Jobs {
		res := fakeCell(i, j)
		if err := w.Write(sweeprun.CSVRow(res.Meta, *res.Report, j.Rounds)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// TestRandomizedStealSchedules is the scheduler's property suite: 1000
// randomized (chunk size, per-backend speed, mid-stream abort)
// schedules against fake backends whose results are pure functions of
// the job. Every schedule must (a) merge byte-identically to the
// single-host rendering, (b) deliver each job exactly once, and (c)
// keep Stats, the observed event stream and the coordinator's registry
// counters in agreement: Steals, Backups and BackendsLost count their
// events, Retried sums the redispatched jobs, and Delivered[b] counts
// the EventResults on b, which the EventBackendDone jobs on b sum to.
func TestRandomizedStealSchedules(t *testing.T) {
	const n = 3
	fakes := make([]*fakeBackend, n)
	urls := make([]string, n)
	for b := 0; b < n; b++ {
		fakes[b] = &fakeBackend{abortAfter: -1}
		ts := httptest.NewServer(fakes[b])
		t.Cleanup(ts.Close)
		urls[b] = ts.URL
	}

	iters := 1000
	if testing.Short() {
		iters = 100
	}
	rng := rand.New(rand.NewSource(443))
	lossy := 0 // schedules that lost a backend
	for it := 0; it < iters; it++ {
		sweep := wire.Sweep{Version: wire.V1}
		jobs := 5 + rng.Intn(20)
		seedBase := uint64(it)*1000 + 1
		for i := 0; i < jobs; i++ {
			sweep.Jobs = append(sweep.Jobs, propJob(seedBase+uint64(i)))
		}
		stealChunk := rng.Intn(4) // 0 = auto
		for b := range fakes {
			var delay time.Duration
			if rng.Intn(2) == 0 {
				delay = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			abortAfter := -1
			if b == rng.Intn(n) && rng.Float64() < 0.3 {
				abortAfter = rng.Intn(4)
			}
			fakes[b].arm(delay, abortAfter)
		}

		var (
			evMu        sync.Mutex
			perJob      = make([]int, jobs)
			stealsMove  int
			seen        = Stats{Delivered: make([]int, n)} // tallied from events
			redispatchN int
			doneJobs    = make([]int, n)
			doneN       = make([]uint64, n)
		)
		coord, err := New(Options{
			Backends:   urls,
			StealChunk: stealChunk,
			Attempts:   4,
			Observe: func(ev Event) {
				evMu.Lock()
				defer evMu.Unlock()
				switch ev.Kind {
				case EventResult:
					perJob[ev.Index]++
					seen.Delivered[ev.Backend]++
				case EventSteal:
					seen.Steals++
					stealsMove += ev.Jobs
				case EventBackup:
					seen.Backups++
				case EventBackendLost:
					seen.BackendsLost++
				case EventRedispatch:
					redispatchN++
					seen.Retried += ev.Jobs
				case EventBackendDone:
					doneN[ev.Backend]++
					doneJobs[ev.Backend] += ev.Jobs
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		format, want := FormatNDJSON, expectedNDJSON(t, sweep)
		if rng.Intn(4) == 0 {
			format, want = FormatCSV, expectedCSV(t, sweep)
		}
		var got bytes.Buffer
		stats, err := coord.Run(context.Background(), sweep, format, &got)
		if err != nil {
			t.Fatalf("iter %d (chunk=%d): %v", it, stealChunk, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("iter %d (chunk=%d): merged %s differs from single host (%d vs %d bytes)",
				it, stealChunk, format, got.Len(), len(want))
		}
		evMu.Lock()
		for i, c := range perJob {
			if c != 1 {
				t.Fatalf("iter %d: job %d delivered %d times, want exactly once", it, i, c)
			}
		}
		seen.TraceID, seen.JobsPerBackend = stats.TraceID, stats.JobsPerBackend
		if !reflect.DeepEqual(stats, seen) {
			t.Fatalf("iter %d: Stats %+v, but the events tally %+v", it, stats, seen)
		}
		if !reflect.DeepEqual(doneJobs, seen.Delivered) {
			t.Fatalf("iter %d: EventBackendDone jobs %v, EventResults %v", it, doneJobs, seen.Delivered)
		}
		m := coord.metrics
		reg := Stats{
			TraceID:        stats.TraceID,
			JobsPerBackend: stats.JobsPerBackend,
			Delivered:      make([]int, n),
			Steals:         int(m.steals.Value()),
			Backups:        int(m.backups.Value()),
			Retried:        int(m.retried.Value()),
			BackendsLost:   int(m.lost.Value()),
		}
		for b := range reg.Delivered {
			reg.Delivered[b] = int(m.delivered[b].Value())
			if got := m.streamSecs[b].Count(); got != doneN[b] {
				t.Fatalf("iter %d: backend %d stream_seconds count %d, %d EventBackendDone", it, b, got, doneN[b])
			}
		}
		if !reflect.DeepEqual(reg, stats) {
			t.Fatalf("iter %d: registry counters %+v, Stats %+v", it, reg, stats)
		}
		if got := int(m.redispatches.Value()); got != redispatchN {
			t.Fatalf("iter %d: redispatches counter %d, %d EventRedispatch", it, got, redispatchN)
		}
		if stealsMove > jobs {
			t.Fatalf("iter %d: steal events moved %d jobs, more than the %d-job grid", it, stealsMove, jobs)
		}
		if stats.BackendsLost > 0 {
			lossy++
		}
		evMu.Unlock()
		total := 0
		for _, d := range stats.Delivered {
			total += d
		}
		if total != jobs {
			t.Fatalf("iter %d: Delivered sums to %d for %d jobs", it, total, jobs)
		}
	}
	if lossy == 0 {
		t.Fatal("no schedule lost a backend: the failure accounting went unchecked")
	}
	t.Logf("%d of %d schedules lost a backend", lossy, iters)
}

// TestPartitionProperties: 1000 random key sets over 1–5 backends —
// every assignment must cover each key exactly once, keep each
// backend's indices ascending (the range order the chunker relies on),
// and be a pure function of its inputs: the same keys partition
// identically twice, and a key's owner does not depend on which other
// keys share its grid (the owner of key i in the full set owns it in
// any subset). Keys are drawn as the 64-hex-digit digests
// wire.Admit returns. Each iteration also keys a random job
// and its trajectory-streaming twin, which produce one Report: they
// must share an owner.
func TestPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 1000; it++ {
		n := 1 + rng.Intn(5)
		keys := make([]string, 1+rng.Intn(40))
		for i := range keys {
			var digest [32]byte
			rng.Read(digest[:])
			keys[i] = hex.EncodeToString(digest[:])
		}
		assign, err := Partition(keys, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(assign) != n {
			t.Fatalf("iter %d: %d ranges for %d backends", it, len(assign), n)
		}
		owner := make([]int, len(keys))
		seen := make([]int, len(keys))
		for b, idxs := range assign {
			for k, i := range idxs {
				seen[i]++
				owner[i] = b
				if k > 0 && idxs[k-1] >= i {
					t.Fatalf("iter %d: backend %d indices not ascending: %v", it, b, idxs)
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("iter %d: key %d assigned %d times", it, i, c)
			}
		}
		again, err := Partition(keys, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, again) {
			t.Fatalf("iter %d: assignment not deterministic:\n%v\n%v", it, assign, again)
		}
		// Every other key, in reverse order: each keeps its owner.
		var sub []string
		var orig []int
		for i := len(keys) - 1; i >= 0; i -= 2 {
			sub = append(sub, keys[i])
			orig = append(orig, i)
		}
		subAssign, err := Partition(sub, n)
		if err != nil {
			t.Fatal(err)
		}
		for b, idxs := range subAssign {
			for _, k := range idxs {
				if owner[orig[k]] != b {
					t.Fatalf("iter %d: key %d owned by backend %d in its grid but %d in a subgrid",
						it, orig[k], owner[orig[k]], b)
				}
			}
		}

		job := propJob(rng.Uint64() % 1_000_000)
		twin := job
		twin.Trajectory = true
		for b, idxs := range partitionJobs(t, []wire.Job{job, twin}, n) {
			if len(idxs) == 1 {
				t.Fatalf("iter %d: job %d and its trajectory twin have different owners (%d of %d backends)",
					it, job.Config.Seed, b, n)
			}
		}
	}
	if _, err := Partition([]string{"0123abcd"}, 2); err == nil {
		t.Error("Partition accepted a key shorter than 16 hex digits")
	}
}
