package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this doubles as the data-race gate for the hot path.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("taskalloc_test_total", "concurrent increments")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: a value
// equal to an upper bound lands in that bucket (le is inclusive), one
// epsilon above lands in the next, and values past the last bound land
// only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("taskalloc_lat_seconds", "boundary test", []float64{0.01, 0.1, 1}).With()
	h.Observe(0.01)  // == bound 0 → bucket le=0.01
	h.Observe(0.011) // just above → bucket le=0.1
	h.Observe(1)     // == last bound → bucket le=1
	h.Observe(5)     // beyond → +Inf only

	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`taskalloc_lat_seconds_bucket{le="0.01"} 1`,
		`taskalloc_lat_seconds_bucket{le="0.1"} 2`,
		`taskalloc_lat_seconds_bucket{le="1"} 3`,
		`taskalloc_lat_seconds_bucket{le="+Inf"} 4`,
		`taskalloc_lat_seconds_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.01+0.011+1+5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
}

// TestHistogramConcurrent exercises Observe's CAS sum loop under
// contention (meaningful under -race and for the cumulative invariant).
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("taskalloc_conc_seconds", "concurrent observe", nil).With()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("Count = %d, want %d", h.Count(), goroutines*per)
	}
	if want := float64(goroutines*per) * 0.001; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
}

// TestVecChildren checks label routing and child identity: the same
// label values return the same child, different values different ones.
func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("taskalloc_req_total", "requests", "route", "code")
	a := v.With("sweeps", "200")
	b := v.With("sweeps", "200")
	c := v.With("sweeps", "500")
	if a != b {
		t.Fatal("same label values returned distinct children")
	}
	if a == c {
		t.Fatal("distinct label values shared a child")
	}
	a.Add(2)
	c.Inc()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`taskalloc_req_total{route="sweeps",code="200"} 2`,
		`taskalloc_req_total{route="sweeps",code="500"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestGaugeAndFuncs covers the collect-time gauge and counter funcs.
func TestGaugeAndFuncs(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.GaugeFunc("taskalloc_entries", "live entries", func() float64 { return n })
	r.CounterFunc("taskalloc_appends_total", "appends", func() float64 { return 42 })
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"taskalloc_entries 7",
		"taskalloc_appends_total 42",
		"# TYPE taskalloc_appends_total counter",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryLintClean is the exposition-format self-check: a registry
// exercising every metric kind must pass Lint.
func TestRegistryLintClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("taskalloc_a_total", "a").Inc()
	r.GaugeFunc("taskalloc_b_bytes", "b", func() float64 { return 1 })
	r.HistogramVec("taskalloc_c_seconds", "c", nil).With().Observe(0.2)
	r.HistogramVec("taskalloc_d_seconds", "d", []float64{1, 2}, "stage").With("run").Observe(3)
	r.CounterVec("taskalloc_e_total", "e", "route").With(`with"quote\and
newline`).Inc()
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if problems := Lint([]byte(b.String())); len(problems) != 0 {
		t.Fatalf("Lint problems on clean registry: %v\n%s", problems, b.String())
	}
}

// TestLintCatches guards the linter against passing malformed text.
func TestLintCatches(t *testing.T) {
	cases := map[string]string{
		"missing HELP": "# TYPE x_total counter\nx_total 1\n",
		"missing TYPE": "# HELP x_total x\nx_total 1\n",
		"duplicate family": "# HELP x_total x\n# TYPE x_total counter\nx_total 1\n" +
			"# HELP x_total x\n# TYPE x_total counter\nx_total 2\n",
		"non-cumulative buckets": "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"1\"} 5\nh_seconds_bucket{le=\"+Inf\"} 3\n" +
			"h_seconds_sum 1\nh_seconds_count 3\n",
		"histogram missing +Inf": "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
			"h_seconds_bucket{le=\"1\"} 5\nh_seconds_sum 1\nh_seconds_count 5\n",
		"sample without metadata": "orphan_total 3\n",
	}
	for name, text := range cases {
		if problems := Lint([]byte(text)); len(problems) == 0 {
			t.Errorf("%s: Lint passed malformed exposition:\n%s", name, text)
		}
	}
}

// TestDuplicateRegistrationPanics pins the fail-fast contract.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("taskalloc_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("taskalloc_x_total", "x again")
}

// TestObserveSince sanity-checks the time helper lands in a plausible
// bucket (it cannot be negative or wildly large for an immediate call).
func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("taskalloc_t_seconds", "t", nil).With()
	h.ObserveSince(time.Now())
	if h.Count() != 1 || h.Sum() < 0 || h.Sum() > 60 {
		t.Fatalf("ObserveSince recorded count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestNewID checks shape and uniqueness of minted IDs.
func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("NewID length: %q %q", a, b)
	}
	if a == b {
		t.Fatal("NewID returned duplicates")
	}
}
