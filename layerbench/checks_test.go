package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"taskalloc"
	"taskalloc/internal/wire"
)

// TestBisectPathIsProvenanceBlind: cache provenance does not change the
// digest; anything on the search path does.
func TestBisectPathIsProvenanceBlind(t *testing.T) {
	rep := taskalloc.Report{Rounds: 10, AvgRegret: 1.5}
	base := wire.BisectResponse{
		Version: wire.V1, ID: "x", Evals: 2,
		Cells: []wire.BisectCell{
			{Gamma: 0.01, JobHash: "a", Report: &rep},
			{Gamma: 0.02, JobHash: "b", Report: &rep},
		},
		Intervals: []wire.BisectInterval{{Lo: 0.01, Hi: 0.02, Band: 0.5}},
	}
	want, err := bisectPath(base)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.CacheHits = 2
	warm.Cells = []wire.BisectCell{base.Cells[0], base.Cells[1]}
	warm.Cells[0].Cached, warm.Cells[1].Cached = true, true
	if got, _ := bisectPath(warm); got != want {
		t.Error("cache provenance changed the path digest")
	}
	if base.Cells[0].Cached || base.CacheHits != 0 {
		t.Error("bisectPath mutated its argument")
	}
	moved := base
	moved.Cells = []wire.BisectCell{base.Cells[0], base.Cells[1]}
	moved.Cells[1].Gamma = 0.03
	if got, _ := bisectPath(moved); got == want {
		t.Error("a different γ left the path digest unchanged")
	}
}

// TestCheckInlineCatchesMismatch: each inline gate reports a mismatch.
func TestCheckInlineCatchesMismatch(t *testing.T) {
	rep1 := taskalloc.Report{Rounds: 1, AvgRegret: 1}
	rep2 := taskalloc.Report{Rounds: 1, AvgRegret: 2}
	e := &env{}
	got := map[string]outcome{
		"G": {digest: "bbb", results: []wire.Result{{Report: &rep1}}},
	}
	cases := []struct {
		name string
		q    request
		o    outcome
	}{
		{"same-as", request{sameAs: "G"}, outcome{digest: "zzz"}},
		{"shared cells", request{sharesWith: "G", shared: 1}, outcome{results: []wire.Result{{Report: &rep2}}}},
		{"missing step", request{sameAs: "B"}, outcome{digest: "bbb"}},
	}
	for _, c := range cases {
		if err := e.checkInline(c.q, c.o, got); err == nil {
			t.Errorf("%s: mismatch not reported", c.name)
		}
	}
	if err := e.checkInline(request{sameAs: "G"}, outcome{digest: "aaa"}, map[string]outcome{"G": {digest: "aaa"}}); err != nil {
		t.Errorf("matching response rejected: %v", err)
	}
}

// TestCorruptSampleFailsRun: a served response that no longer matches
// its untimed re-execution on the single reference backend counts as a
// failed request — the run reports correct=false and the command exits
// non-zero.
func TestCorruptSampleFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a grid")
	}
	ctx := context.Background()
	w, _ := workloadByName("grid-hetero")
	e, err := setup(ctx, w, 5, filepath.Join(t.TempDir(), "work"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rec := e.loop(ctx, time.Millisecond, nil)
	if rec.failed != 0 || len(rec.pending) == 0 {
		t.Fatalf("loop: %d failed, %d sampled; want 0 failed and a sample", rec.failed, len(rec.pending))
	}
	for i := range rec.pending {
		rec.pending[i].out.digest = "corrupt"
	}
	e.verifySamples(ctx, rec)
	if rec.failed != len(rec.pending) {
		t.Fatalf("%d of %d corrupted samples failed, want all", rec.failed, len(rec.pending))
	}
}
