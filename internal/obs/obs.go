// Package obs is the repository's telemetry substrate: counters and
// fixed-bucket latency histograms with atomic hot paths, plus gauges
// and counters read at collection time from the subsystem that owns
// the value, collected in a Registry that renders the Prometheus text
// exposition format (version 0.0.4). It is stdlib-only by design — the
// container pins the toolchain — and allocation-free on the
// instrumentation hot path: Counter.Add and Histogram.Observe touch
// only pre-allocated atomics, so per-job and per-cell instrumentation
// stays within benchmark noise of uninstrumented code.
//
// Naming conventions (DESIGN.md §14): every family is prefixed
// `taskalloc_`, counters end in `_total`, histograms measuring time
// end in `_seconds` and observe float64 seconds, gauges name the
// quantity directly (`_bytes`, `_entries`). Labels are closed, low-
// cardinality sets fixed at instrumentation time (route, stage,
// disposition, backend index) — never request-derived strings.
//
// Collection model: a Registry is per-component (one per simserver
// Server, one per gridcoord Coordinator), not global, so tests and
// multi-instance processes never share counters. Vec lookups
// (With) allocate on first use of a label combination and are
// intended for setup-time caching; the returned Counter and Histogram
// handles are the hot-path objects.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricType discriminates a family's exposition TYPE line.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotone cumulative count. The zero value is unusable;
// obtain one from Registry.Counter or CounterVec.With.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is unsigned: counters are monotone by contract).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: per-bucket atomic counts
// plus an atomic sum. Buckets are cumulative only at render time, so
// Observe touches exactly one bucket counter, the count, and the sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value (for latency histograms, float64 seconds).
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (<= ~20) and the slice is
	// cache-resident, so this beats binary search at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince observes the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the histogram's upper bucket bounds (without +Inf).
// The returned slice is shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// DefBuckets is the default latency bucket layout, in seconds: fine
// sub-millisecond resolution for cache hits and render steps, coarse
// multi-second tail for full sweeps.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// series is one labeled child of a family.
type series struct {
	labelValues []string
	c           *Counter
	h           *Histogram
	fn          func() float64 // CounterFunc / GaugeFunc
}

// family is one exposition family: name, help, type, label schema, and
// the child series in creation order.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	byKey  map[string]*series
	series []*series
}

// Registry collects families and renders them in the Prometheus text
// exposition format. Families render in registration order; a name
// can be registered only once (a duplicate panics — registration is
// setup-time code, and a silent merge would corrupt the exposition).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate or invalid name.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q in family %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	f.byKey = make(map[string]*series)
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// validName checks the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// child returns (creating if needed) the series for the label values.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: family %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeHistogram:
		s.h = &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns the existing) unlabeled counter family
// and returns its single child.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: typeCounter})
	return f.child(nil).c
}

// GaugeFunc registers a gauge family whose single value is read from
// fn at collection time — for quantities another subsystem already
// tracks (cache sizes, store bytes). fn must be safe for concurrent
// use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeGauge})
	f.child(nil).fn = fn
}

// CounterFunc registers a counter family whose single value is read
// from fn at collection time. fn must be monotone and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeCounter})
	f.child(nil).fn = fn
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(&family{
		name: name, help: help, typ: typeCounter,
		labelNames: append([]string(nil), labelNames...),
	})}
}

// With returns the counter for the label values, creating it on first
// use. Intended for setup-time caching; the lookup takes a lock.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).c }

// HistogramVec is a labeled fixed-bucket histogram family. Every child
// shares the family's bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family. buckets are
// ascending upper bounds (+Inf is implicit); nil means DefBuckets.
// With no label names it has one child, With().
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{
		name: name, help: help, typ: typeHistogram,
		buckets:    normalizeBuckets(name, buckets),
		labelNames: append([]string(nil), labelNames...),
	})}
}

// With returns the histogram for the label values, creating it on
// first use. Intended for setup-time caching.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).h }

// normalizeBuckets validates the bound layout (strictly ascending,
// finite) and applies the default.
func normalizeBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	out := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(out) {
		panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
	}
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && out[i-1] == b) {
			panic(fmt.Sprintf("obs: histogram %s has invalid bucket %v", name, b))
		}
	}
	return out
}

// Render writes every family in the Prometheus text exposition
// format, in registration order. It never fails on the formatting
// side; the error is the writer's.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP serves the exposition — mount it at GET /v1/metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.Render(w)
}

// render writes one family's HELP/TYPE lines and every series.
func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	series := append([]*series(nil), f.series...)
	f.mu.Unlock()
	for _, s := range series {
		switch {
		case s.fn != nil:
			sampleLine(b, f.name, f.labelNames, s.labelValues, "", "", s.fn())
		case f.typ == typeCounter:
			sampleLine(b, f.name, f.labelNames, s.labelValues, "", "", float64(s.c.Value()))
		case f.typ == typeHistogram:
			h := s.h
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				sampleLine(b, f.name+"_bucket", f.labelNames, s.labelValues,
					"le", formatFloat(bound), float64(cum))
			}
			cum += h.counts[len(h.bounds)].Load()
			sampleLine(b, f.name+"_bucket", f.labelNames, s.labelValues, "le", "+Inf", float64(cum))
			sampleLine(b, f.name+"_sum", f.labelNames, s.labelValues, "", "", h.Sum())
			sampleLine(b, f.name+"_count", f.labelNames, s.labelValues, "", "", float64(h.Count()))
		}
	}
}

// sampleLine writes one sample with its label set (plus an optional
// trailing extra label, for histogram le).
func sampleLine(b *strings.Builder, name string, labelNames, labelValues []string,
	extraName, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", ln, escapeLabel(labelValues[i]))
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", extraName, extraValue)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: integers without a decimal
// point, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value's backslashes and newlines (%q
// adds the quote escaping).
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}

// NewID mints a 16-byte random hex identifier — the request and trace
// IDs the serving layers log and propagate (X-Request-Id, X-Trace-Id).
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// constant rather than panic in a logging path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
