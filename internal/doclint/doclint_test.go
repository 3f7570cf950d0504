package doclint

import (
	"path/filepath"
	"testing"
)

// TestExportedDocsComplete is the doc-completeness gate promised by the
// serving-layer docs: every exported identifier of the wire format, the
// service and its client, the grid coordinator, the bisect search, the
// scenario subsystem, the batch runner, the store and the metrics
// package must carry a doc comment. Extend gated with any new
// public-facing package.
func TestExportedDocsComplete(t *testing.T) {
	gated := []string{
		"internal/wire",
		"internal/simserver",
		"internal/simserver/client",
		"internal/gridcoord",
		"internal/bisect",
		"internal/scenario",
		"internal/sweeprun",
		"internal/store",
		"internal/obs",
	}
	root := filepath.Join("..", "..")
	for _, dir := range gated {
		t.Run(dir, func(t *testing.T) {
			problems, err := Check(filepath.Join(root, filepath.FromSlash(dir)))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestCheckFindsProblems guards the checker itself against silently
// passing everything: the fixture package has known gaps.
func TestCheckFindsProblems(t *testing.T) {
	problems, err := Check(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"exported type Undocumented has no doc comment":       false,
		"exported function MissingDoc has no doc comment":     false,
		"exported method Documented.NoDoc has no doc comment": false,
		"exported const MissingConstDoc has no doc comment":   false,
	}
	for _, p := range problems {
		for frag := range want {
			if len(p) >= len(frag) && p[len(p)-len(frag):] == frag {
				want[frag] = true
			}
		}
	}
	for frag, found := range want {
		if !found {
			t.Errorf("checker missed: %s (got %v)", frag, problems)
		}
	}
	if n := len(problems); n != len(want) {
		t.Errorf("checker reported %d problems, want exactly %d: %v", n, len(want), problems)
	}
}
