package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskalloc/internal/wire"
)

// hashPinFile holds the pinned hashes, one "<document> <hash name>
// <hex>" line each. It lives outside testdata/wire, whose every *.json
// is a fuzz seed and a parity probe.
var hashPinFile = filepath.Join("testdata", "hashes.golden")

// pinnedHashes renders every hash the service keys on or reports, over
// every testdata/wire document: the sweep's SweepHash and
// SemanticSweepHash; each job's JobHash, SemanticHash and result key
// (the SemanticHash with Trajectory cleared); and the
// SemanticBisectHash of a bisect over the document's first job.
func pinnedHashes(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	pin := func(doc, name string, hash func() (string, error)) {
		h, err := hash()
		if err != nil {
			t.Fatalf("%s %s: %v", doc, name, err)
		}
		fmt.Fprintf(&out, "%s %s %s\n", doc, name, h)
	}
	for _, doc := range seedCorpus(t) {
		s, err := wire.DecodeSweep(bytes.NewReader(doc.data))
		if err != nil {
			t.Fatal(err)
		}
		pin(doc.name, "sweep", func() (string, error) { return wire.SweepHash(s) })
		pin(doc.name, "semantic_sweep", func() (string, error) { return wire.SemanticSweepHash(s) })
		for i, j := range s.Jobs {
			pin(doc.name, fmt.Sprintf("jobs[%d].job", i), func() (string, error) { return wire.JobHash(j) })
			pin(doc.name, fmt.Sprintf("jobs[%d].semantic", i), func() (string, error) { return wire.SemanticHash(j) })
			key := j
			key.Trajectory = false
			pin(doc.name, fmt.Sprintf("jobs[%d].key", i), func() (string, error) { return wire.SemanticHash(key) })
		}
		req := wire.BisectRequest{Version: wire.V1, Job: s.Jobs[0], GammaLo: 0.01, GammaHi: 0.05, TargetBand: 0.5}
		pin(doc.name, "bisect", func() (string, error) { return wire.SemanticBisectHash(req) })
	}
	return out.String()
}

// TestPinnedHashes: the hashes journals, placement, sweep IDs and
// bisect IDs rest on keep their values. A journal written by one
// build must resume under the next, and a coordinator must place a
// grid where its backends' caches hold it, so any differing line is a
// compatibility break, not a fixture to refresh.
func TestPinnedHashes(t *testing.T) {
	want, err := os.ReadFile(hashPinFile)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(pinnedHashes(t), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d hash lines, %s pins %d", len(got), hashPinFile, len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Errorf("hash changed:\n got: %s\nwant: %s", got[i], lines[i])
		}
	}
}
