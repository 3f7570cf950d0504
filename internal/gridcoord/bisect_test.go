package gridcoord

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"taskalloc/internal/simserver"
	"taskalloc/internal/wire"
)

// TestSplitBySize: an owner's cells are cut, in order, into the fewest
// sub-sweeps whose compact body (wire.MarshalSweep) fits the limit; a
// cell too large for any sub-sweep rides alone. Sizes are checked
// against the real encodings, at limits from below one cell to above
// all of them.
func TestSplitBySize(t *testing.T) {
	var jobs []wire.Job
	for _, n := range []int{10, 500, 10, 10, 2000, 10, 300, 300} {
		jobs = append(jobs, wire.Job{Meta: []string{strings.Repeat("x", n)}, Rounds: 1,
			Config: wire.Config{Ants: 10, Demands: []int{1}}})
	}
	body := func(idxs []int) int {
		sub := wire.Sweep{Jobs: []wire.Job{}}
		for _, i := range idxs {
			sub.Jobs = append(sub.Jobs, jobs[i])
		}
		b, err := wire.MarshalSweep(sub)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	for _, idxs := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {1, 3, 4, 6, 7}, {2}, nil} {
		for _, limit := range []int{1, 200, body(idxs[:min(2, len(idxs))]), 700, 1000, 2500, body(idxs)} {
			chunks, err := splitBySize(idxs, jobs, limit)
			if err != nil {
				t.Fatal(err)
			}
			var joined []int
			for k, ch := range chunks {
				joined = append(joined, ch.idxs...)
				if size := body(ch.idxs); len(ch.idxs) > 1 && size > limit {
					t.Errorf("idxs %v, limit %d: chunk %v encodes to %d bytes", idxs, limit, ch.idxs, size)
				}
				if k+1 < len(chunks) {
					if size := body(append(slices.Clone(ch.idxs), chunks[k+1].idxs[0])); size <= limit {
						t.Errorf("idxs %v, limit %d: chunk %v could take job %d (%d bytes)",
							idxs, limit, ch.idxs, chunks[k+1].idxs[0], size)
					}
				}
			}
			if !slices.Equal(joined, idxs) {
				t.Errorf("idxs %v, limit %d: chunks %v do not rejoin to idxs", idxs, limit, chunks)
			}
		}
	}
}

// TestBisectRoundSplitsBySize: a bisect round reaches its owner in
// sub-sweeps of at most the size limit, in cell order, and every cell
// comes back evaluated. One backend owns all six γ cells, whose
// encodings have one length, and the limit is two cells' sub-sweep.
func TestBisectRoundSplitsBySize(t *testing.T) {
	backend := simserver.New(simserver.Options{Workers: 1})
	t.Cleanup(backend.Close)
	var (
		mu    sync.Mutex
		posts [][]float64 // each sub-sweep's γ values
		sizes []int
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if sub, err := wire.DecodeSweep(bytes.NewReader(body)); err == nil {
			var gammas []float64
			for _, j := range sub.Jobs {
				gammas = append(gammas, j.Config.Gamma)
			}
			mu.Lock()
			posts, sizes = append(posts, gammas), append(sizes, len(body))
			mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	coord, err := New(Options{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}

	gammas := []float64{0.011, 0.012, 0.013, 0.014, 0.015, 0.016}
	jobs := make([]wire.Job, len(gammas))
	keys := make([]string, len(gammas))
	for k, g := range gammas {
		jobs[k] = wire.Job{Rounds: 50, Config: wire.Config{Ants: 100, Demands: []int{20, 30}, Gamma: g, Shards: 1}}
		if keys[k], err = wire.SemanticHash(jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	two, err := wire.MarshalSweep(wire.Sweep{Jobs: jobs[:2]})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]wire.BisectCell, len(gammas))
	if err := coord.evalRound(context.Background(), coord.clients, len(two), jobs, keys, cells); err != nil {
		t.Fatal(err)
	}
	for k, c := range cells {
		if c.Report == nil || c.Err != "" {
			t.Errorf("cell %d (γ=%v) not evaluated: %+v", k, gammas[k], c)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := [][]float64{gammas[0:2], gammas[2:4], gammas[4:6]}; !slices.EqualFunc(posts, want, slices.Equal) {
		t.Errorf("sub-sweeps carried γ %v, want %v", posts, want)
	}
	for k, n := range sizes {
		if n > len(two) {
			t.Errorf("sub-sweep %d is %d bytes, over the %d-byte limit", k, n, len(two))
		}
	}
}
