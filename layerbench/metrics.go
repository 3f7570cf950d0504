package main

import (
	"fmt"
	"io"
	"math"
	"syscall"
	"time"

	"taskalloc/internal/stats"
)

// metric is one reported value. n is the sample count behind a timing
// (printed beside it; zero for values that are not sample statistics).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (an idle layer reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set (getrusage ru_maxrss,
// which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// loopTotals are a timed loop's per-kind samples and delivered work.
type loopTotals struct {
	sweepLat, firstLat, bisectLat []float64 // ms
	requests, sweeps, bisects     int
	cells, sweepCells             int
	evals, hits                   int
	antRounds                     float64
	bytes                         int64
}

func totals(r *loopRecord) loopTotals {
	var t loopTotals
	for _, q := range r.reqs {
		t.requests++
		t.cells += q.cells
		t.antRounds += q.antRounds
		ms := float64(q.lat) / float64(time.Millisecond)
		switch q.kind {
		case kindSweep:
			t.sweeps++
			t.sweepLat = append(t.sweepLat, ms)
			t.firstLat = append(t.firstLat, float64(q.first)/float64(time.Millisecond))
			t.sweepCells += q.cells
			t.bytes += q.bytes
		case kindBisect:
			t.bisects++
			t.bisectLat = append(t.bisectLat, ms)
			t.evals += q.evals
			t.hits += q.hits
		}
	}
	return t
}

// windows is how many equal slices of a timed loop the end-to-end
// metrics are taken over: each metric is computed on every slice and
// reports the median of the slices. A host that slows down for part of
// a run, as a shared one does while another tenant is busy, then moves
// only the slices it covers, and the result not at all while it covers
// fewer than half of them.
const windows = 7

// endToEnd computes the user-visible metrics of one timed loop: each
// is the median over the loop's windows of its value on one window
// (slices with no sample of a metric are left out of its median). A
// sample belongs to the window in which it completed. The printed
// sample count is the loop's total.
func endToEnd(r *loopRecord) map[string]metric {
	slices := make([]loopRecord, windows)
	slot := func(t time.Time) *loopRecord {
		i := int(int64(t.Sub(r.start)) * windows / max(int64(r.elapsed), 1))
		return &slices[min(max(i, 0), windows-1)]
	}
	for _, q := range r.reqs {
		s := slot(q.done)
		s.reqs = append(s.reqs, q)
	}
	for _, ss := range r.sessions {
		s := slot(ss.done)
		s.sessions = append(s.sessions, ss)
	}
	vals := map[string][]float64{}
	out := map[string]metric{}
	for i := range slices {
		slices[i].elapsed = r.elapsed / windows
		for k, m := range windowMetrics(&slices[i]) {
			if !math.IsNaN(m.Value) {
				vals[k] = append(vals[k], m.Value)
			}
			o := out[k]
			o.Unit, o.n = m.Unit, o.n+m.n
			out[k] = o
		}
	}
	for k, o := range out {
		o.Value = stats.Median(vals[k])
		out[k] = o
	}
	return out
}

// windowMetrics computes the end-to-end metrics of one window.
// Latencies are medians (and a p90) of per-request samples, because
// the distributions are heavy-tailed; rates are completed work over
// the window's wall time.
func windowMetrics(r *loopRecord) map[string]metric {
	t := totals(r)
	secs := r.elapsed.Seconds()
	sessions := make([]float64, len(r.sessions))
	for i, s := range r.sessions {
		sessions[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return map[string]metric{
		"request_p50_ms":      {stats.Median(t.sweepLat), "ms", len(t.sweepLat)},
		"request_p90_ms":      {stats.Quantile(t.sweepLat, 0.9), "ms", len(t.sweepLat)},
		"first_result_p50_ms": {stats.Median(t.firstLat), "ms", len(t.firstLat)},
		"requests_per_s":      {float64(t.requests) / secs, "1/s", t.requests},
		"cells_per_s":         {float64(t.cells) / secs, "1/s", t.cells},
		"mant_rounds_per_s":   {t.antRounds / secs / 1e6, "Mant-rounds/s", 0},
		"session_p50_ms":      {stats.Median(sessions), "ms", len(sessions)},
		"bisect_p50_ms":       {stats.Median(t.bisectLat), "ms", len(t.bisectLat)},
	}
}

// printMetrics writes one aligned line per metric.
func printMetrics(w io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		v := m[k]
		if v.n > 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %-14s (n=%d)\n", k, v.Value, v.Unit, v.n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
}
