package main

import (
	"math"
	"testing"
	"time"
)

// TestEndToEndIgnoresSlowMinority: a loop whose host slows down 3x for
// fewer than half of its windows reports the latency and rate of the
// others, and still counts every sample.
func TestEndToEndIgnoresSlowMinority(t *testing.T) {
	start := time.Unix(1000, 0)
	r := &loopRecord{start: start, elapsed: windows * time.Second}
	for i := 0; i < 100*windows; i++ {
		at := start.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := 10 * time.Millisecond
		if i/100 < (windows-1)/2 {
			lat *= 3
		}
		r.reqs = append(r.reqs, reqRecord{kind: kindSweep, lat: lat, first: lat / 2, done: at, cells: 2})
		if i%10 == 9 {
			r.reqs = append(r.reqs, reqRecord{kind: kindBisect, lat: 2 * lat, done: at, cells: 4, evals: 4})
			r.sessions = append(r.sessions, sessionRecord{lat: 11 * lat, done: at})
		}
	}
	m := endToEnd(r)
	for name, want := range map[string]float64{
		"request_p50_ms":      10,
		"request_p90_ms":      10,
		"first_result_p50_ms": 5,
		"bisect_p50_ms":       20,
		"session_p50_ms":      110,
		"requests_per_s":      110,
		"cells_per_s":         240,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := m["request_p50_ms"].n; n != 100*windows {
		t.Errorf("request_p50_ms counts %d samples, want %d", n, 100*windows)
	}
}

// TestEndToEndSkipsEmptyWindows: a metric with samples in only some
// windows is the median over those windows, not NaN.
func TestEndToEndSkipsEmptyWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	r := &loopRecord{start: start, elapsed: windows * time.Second}
	r.reqs = append(r.reqs,
		reqRecord{kind: kindBisect, lat: 30 * time.Millisecond, done: start.Add(500 * time.Millisecond)},
		reqRecord{kind: kindBisect, lat: 50 * time.Millisecond, done: start.Add(windows*time.Second - 500*time.Millisecond)})
	if got := endToEnd(r)["bisect_p50_ms"].Value; got != 40 {
		t.Errorf("bisect_p50_ms = %v, want 40", got)
	}
}
