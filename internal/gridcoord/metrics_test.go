package gridcoord

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
)

// logBuffer is a goroutine-safe writer capturing a backend's access
// log.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestTraceRoundTripAndGridMetrics: one Run mints a trace ID, every
// backend sees it (it lands in their access logs), EventBackendDone
// fires once per backend stream, and the coordinator's registry serves
// a lint-clean exposition whose delivery counters sum to the sweep,
// with no per-backend gauge.
func TestTraceRoundTripAndGridMetrics(t *testing.T) {
	sweep := testSweep(t)
	const n = 2
	logs := make([]*logBuffer, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		logs[i] = &logBuffer{}
		srv := simserver.New(simserver.Options{Workers: 2, AccessLog: logs[i]})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	var evMu sync.Mutex
	doneEvents := map[int]Event{}
	reg := obs.NewRegistry()
	coord, err := New(Options{
		Backends: urls,
		Registry: reg,
		// Static mode: one stream per backend, so "done fires once per
		// backend" and "stream_seconds_count == 1" stay exact. The
		// chunked scheduler's per-stream accounting is covered by the
		// property suite.
		StealChunk: -1,
		Observe: func(ev Event) {
			if ev.Kind != EventBackendDone {
				return
			}
			evMu.Lock()
			defer evMu.Unlock()
			if prior, dup := doneEvents[ev.Backend]; dup {
				t.Errorf("backend %d reported done twice: %+v then %+v", ev.Backend, prior, ev)
			}
			doneEvents[ev.Backend] = ev
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.TraceID) != 32 {
		t.Fatalf("stats.TraceID = %q, want a 32-char ID", stats.TraceID)
	}

	total := 0
	for b, d := range stats.Delivered {
		total += d
		if d != stats.JobsPerBackend[b] {
			t.Errorf("backend %d delivered %d of its %d jobs", b, d, stats.JobsPerBackend[b])
		}
	}
	if total != len(sweep.Jobs) {
		t.Fatalf("delivered %d results for %d jobs", total, len(sweep.Jobs))
	}

	// Every backend that received jobs logged the run's trace ID.
	for b := 0; b < n; b++ {
		if stats.JobsPerBackend[b] == 0 {
			continue
		}
		if got := logs[b].String(); !strings.Contains(got, `"trace_id":"`+stats.TraceID+`"`) {
			t.Errorf("backend %d access log missing trace %s:\n%s", b, stats.TraceID, got)
		}
		ev, ok := doneEvents[b]
		if !ok {
			t.Errorf("backend %d never reported EventBackendDone", b)
			continue
		}
		if ev.Err != nil || ev.Jobs != stats.Delivered[b] {
			t.Errorf("backend %d done event %+v, want err=nil jobs=%d", b, ev, stats.Delivered[b])
		}
	}

	var exp bytes.Buffer
	if err := reg.Render(&exp); err != nil {
		t.Fatal(err)
	}
	if problems := obs.Lint(exp.Bytes()); len(problems) != 0 {
		t.Fatalf("grid exposition lint: %v", problems)
	}
	for _, want := range []string{
		"taskalloc_grid_sweeps_total 1",
		`taskalloc_grid_jobs_delivered_total{backend="0"}`,
		`taskalloc_grid_backend_stream_seconds_count{backend="0"} 1`,
	} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// No per-backend gauge: one shared by concurrent runs reads a state
	// none of them was in.
	for _, gone := range []string{
		"taskalloc_grid_backend_assigned_jobs",
		"taskalloc_grid_backend_throughput_jobs_per_second",
	} {
		if strings.Contains(exp.String(), gone) {
			t.Errorf("exposition still has %s", gone)
		}
	}
}

// TestBackendDoneOnImmediateFailure is the terminal-event contract for
// a backend that dies before delivering a single job: its
// EventBackendDone still fires, with zero jobs and the failure reason
// attached.
func TestBackendDoneOnImmediateFailure(t *testing.T) {
	sweep := testSweep(t)
	assign := partitionJobs(t, sweep.Jobs, 2)
	victim := 0
	if len(assign[0]) == 0 {
		victim = 1
	}

	urls := bootBackends(t, 2, func(i int, h http.Handler) http.Handler {
		if i != victim {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				// Drop the connection before any result: a transport-level
				// death, not a rejection (4xx would be fatal, not retried).
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Fatal("test server not hijackable")
				}
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			h.ServeHTTP(w, r)
		})
	})

	var evMu sync.Mutex
	var victimDone []Event
	coord, err := New(Options{
		Backends: urls,
		Observe: func(ev Event) {
			if ev.Kind == EventBackendDone && ev.Backend == victim {
				evMu.Lock()
				victimDone = append(victimDone, ev)
				evMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := coord.Run(context.Background(), sweep, FormatNDJSON, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendsLost != 1 || stats.Delivered[victim] != 0 {
		t.Fatalf("stats = %+v, want victim %d lost with 0 delivered", stats, victim)
	}
	if len(victimDone) != 1 {
		t.Fatalf("victim reported %d done events, want 1", len(victimDone))
	}
	if ev := victimDone[0]; ev.Err == nil || ev.Jobs != 0 {
		t.Fatalf("victim done event %+v, want err!=nil jobs=0", ev)
	}
}
