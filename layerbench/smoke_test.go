package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honor.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (spec, string) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s, root
}

// TestSpecNamesEveryWorkload: BENCHMARK.json and the benchmark agree on
// the workload set.
func TestSpecNamesEveryWorkload(t *testing.T) {
	s, _ := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

// TestSmoke runs every workload at minimal length, untraced and traced,
// and checks that each metric BENCHMARK.json names is emitted with its
// unit and that no request failed (error_rate = 0).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload's servers")
	}
	s, root := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			name := w.name + "/untraced"
			if traced {
				want, name = s.PerLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				res, err := run(context.Background(), config{
					workload: w.name,
					seed:     7,
					measure:  300 * time.Millisecond,
					trace:    traced,
					setups:   1,
					root:     root,
					workdir:  filepath.Join(out, "work"),
					outdir:   out,
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
					t.Fatalf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, "spans-"+w.name+"-seed7.json")); err != nil {
						t.Errorf("no spans file: %v", err)
					}
				}
			})
		}
	}
}
