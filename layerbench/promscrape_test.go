package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func loadExposition(t *testing.T, name string) scrape {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParseBackendExposition reads a /v1/metrics body captured from a
// simserve backend: counters, labelled counters, and histogram
// _sum/_count series.
func TestParseBackendExposition(t *testing.T) {
	s := loadExposition(t, "backend.prom")
	if got := s.sum("taskalloc_sweep_requests_total", map[string]string{"disposition": "hit"}); got != 2 {
		t.Errorf("sweep hits = %v, want 2", got)
	}
	if got := s.sum("taskalloc_sweep_requests_total", nil); got != 6 {
		t.Errorf("sweep requests = %v, want 6", got)
	}
	if got := s.sum("taskalloc_http_requests_total", map[string]string{"route": "POST /v1/sweeps", "code": "200"}); got != 6 {
		t.Errorf("POST /v1/sweeps 200s = %v, want 6", got)
	}
	mean, n := s.histMean("taskalloc_stage_seconds", map[string]string{"stage": "engine_run"})
	if n != 4 || math.Abs(mean-0.00039447200000000004/4) > 1e-18 {
		t.Errorf("engine_run mean %v over %v, want %v over 4", mean, n, 0.00039447200000000004/4)
	}
	if _, n := s.histMean("taskalloc_stage_seconds", map[string]string{"stage": "journal_append"}); n != 0 {
		t.Errorf("journal_append count = %v on a memory-only backend", n)
	}
	if got := s.sum("taskalloc_stage_seconds_bucket", map[string]string{"stage": "engine_run", "le": "+Inf"}); got != 4 {
		t.Errorf("engine_run +Inf bucket = %v, want 4", got)
	}
}

// TestParseCoordinatorExposition reads a captured coordinator body.
func TestParseCoordinatorExposition(t *testing.T) {
	s := loadExposition(t, "coordinator.prom")
	if got := s.sum("taskalloc_grid_steals_total", nil); got != 1 {
		t.Errorf("steals = %v, want 1", got)
	}
	if got := s.sum("taskalloc_grid_jobs_delivered_total", map[string]string{"backend": "1"}); got != 6 {
		t.Errorf("backend 1 delivered = %v, want 6", got)
	}
	if got := s.sum("taskalloc_grid_jobs_delivered_total", nil); got != 12 {
		t.Errorf("delivered = %v, want 12", got)
	}
	if got := s.sum("taskalloc_grid_backend_throughput_jobs_per_second", map[string]string{"backend": "0"}); got != 2636.185334373748 {
		t.Errorf("backend 0 throughput = %v", got)
	}
}

// TestScrapeDeltas: counter and histogram deltas between two scrapes,
// and accumulation across a restart that resets the registry.
func TestScrapeDeltas(t *testing.T) {
	before, err := parseProm([]byte(`# HELP x_total demo
# TYPE x_total counter
x_total{k="a"} 3
x_total{k="b"} 1
h_seconds_sum 0.5
h_seconds_count 2
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm([]byte(`x_total{k="a"} 10
x_total{k="b"} 1
x_total{k="c"} 4
h_seconds_sum 2
h_seconds_count 5
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	if got := d.sum("x_total", map[string]string{"k": "a"}); got != 7 {
		t.Errorf("delta a = %v, want 7", got)
	}
	if got := d.sum("x_total", nil); got != 11 {
		t.Errorf("delta total = %v, want 11 (a new series counts from zero)", got)
	}
	mean, n := d.histMean("h_seconds", nil)
	if n != 3 || mean != 0.5 {
		t.Errorf("histogram delta mean %v over %v, want 0.5 over 3", mean, n)
	}
	acc := scrape{}
	acc.add(d)
	acc.add(d)
	if got := acc.sum("x_total", nil); got != 22 {
		t.Errorf("accumulated = %v, want 22", got)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	s, err := parseProm([]byte("m{a=\"x\\\"y\",b=\"1\\\\2\",c=\"l\\nm\"} 1.5e3 1700000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("m", map[string]string{"a": `x"y`, "b": `1\2`, "c": "l\nm"}); got != 1500 {
		t.Errorf("escaped labels: got %v, want 1500 (series %v)", got, s)
	}
	for _, bad := range []string{"m{a=\"x} 1\n", "m{a=x} 1\n", "m\n", "m{} one\n"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}
