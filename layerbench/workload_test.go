package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"taskalloc/internal/wire"
)

// documents renders every wire document a run with this seed can
// send: the first sessions, the warm-up session, and the ledger sample.
func documents(t *testing.T, w *workload, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 1, 2, 7, warmupIndex} {
		for _, q := range w.session(seed, i).reqs {
			put(q.role)
			switch q.kind {
			case kindSweep:
				b, err := wire.MarshalSweep(q.sweep)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
			case kindBisect:
				put(q.bisect)
			}
		}
	}
	in := ledgerSample(w, seed)
	put(in.warm)
	put(in.cold)
	return buf.Bytes()
}

// TestGenerationIsPure: the same (workload, seed) yields byte-identical
// request documents; a different seed yields different ones.
func TestGenerationIsPure(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := documents(t, w, 42), documents(t, w, 42)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed generated different documents")
			}
			if bytes.Equal(a, documents(t, w, 43)) {
				t.Fatal("a different seed generated the same documents")
			}
		})
	}
}

// TestAliasIsSemanticTwin: durable-reuse's alias spelling of grid G
// differs as a document but not as a behavior, so it must hit G's
// cache entry.
func TestAliasIsSemanticTwin(t *testing.T) {
	canon := durableSession(3, 0).reqs[0].sweep
	alias := aliasOf(canon)
	syn1, err := wire.SweepHash(canon)
	if err != nil {
		t.Fatal(err)
	}
	syn2, err := wire.SweepHash(alias)
	if err != nil {
		t.Fatal(err)
	}
	if syn1 == syn2 {
		t.Fatal("alias is syntactically identical to the canonical grid")
	}
	sem1, err := wire.SemanticSweepHash(canon)
	if err != nil {
		t.Fatal(err)
	}
	sem2, err := wire.SemanticSweepHash(alias)
	if err != nil {
		t.Fatal(err)
	}
	if sem1 != sem2 {
		t.Fatal("alias has a different semantic hash")
	}
}

// TestDurableGridCoversBisect: the durable session's grid G holds the
// exact γ values the bisect's first two refinement rounds evaluate.
func TestDurableGridCoversBisect(t *testing.T) {
	g := durableGammas()
	if g[0] != bisectLo || g[4] != bisectHi || g[2] != (bisectLo+bisectHi)/2 ||
		g[1] != (g[0]+g[2])/2 || g[3] != (g[2]+g[4])/2 {
		t.Fatalf("durable γ grid %v is not the bisect's dyadic points", g)
	}
}
