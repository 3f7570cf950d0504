package simserver_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// newHTTPService is newTestService plus the raw base URL, for tests
// that scrape endpoints directly.
func newHTTPService(t *testing.T, srv *simserver.Server) (*httptest.Server, *client.Client, func()) {
	t.Helper()
	hs := httptest.NewServer(srv)
	c := client.New(hs.URL, hs.Client())
	return hs, c, func() {
		hs.Close()
		srv.Close()
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the access
// log (slog writes from handler goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrape fetches GET /v1/metrics and returns the exposition body.
func scrape(tb testing.TB, base string) []byte {
	tb.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		tb.Fatalf("GET /v1/metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sampleValue finds the first sample line whose name+labels prefix
// matches and returns its value string ("" if absent).
func sampleValue(body []byte, prefix string) string {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	return ""
}

// metric scrapes base and returns the value of one series (name plus
// labels, e.g. `taskalloc_sweep_requests_total{disposition="hit"}`),
// failing when the exposition does not carry it.
func metric(tb testing.TB, base, series string) float64 {
	tb.Helper()
	v := sampleValue(scrape(tb, base), series+" ")
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		tb.Fatalf("series %s = %q: %v", series, v, err)
	}
	return f
}

// TestMetricsExposition is the telemetry acceptance test: after a miss
// and a cached hit, /v1/metrics serves a lint-clean exposition that
// counts both, times the stages, and accounts the requests by route.
func TestMetricsExposition(t *testing.T) {
	var logBuf syncBuffer
	srv := simserver.New(simserver.Options{AccessLog: &logBuf})
	hs, c, done := newHTTPService(t, srv)
	defer done()
	ctx := context.Background()

	sweep, err := wire.FromJobs(testGrid(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	again, err := c.SubmitSweep(ctx, sweep, client.SubmitOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("resubmission missed the cache")
	}

	body := scrape(t, hs.URL)
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}

	if got := sampleValue(body, `taskalloc_sweep_requests_total{disposition="hit"}`); got != "1" {
		t.Fatalf("sweep hit sample = %q, want 1", got)
	}
	if got := sampleValue(body, `taskalloc_sweep_requests_total{disposition="miss"}`); got != "1" {
		t.Fatalf("sweep miss sample = %q, want 1", got)
	}
	// Stage timings observed once per executed job at least.
	if got := sampleValue(body, `taskalloc_stage_seconds_count{stage="engine_run"}`); got == "" || got == "0" {
		t.Fatalf("engine_run stage count = %q, want > 0", got)
	}
	if got := sampleValue(body, `taskalloc_stage_seconds_count{stage="admission"}`); got == "" || got == "0" {
		t.Fatalf("admission stage count = %q, want > 0", got)
	}
	// Request accounting by route pattern and status.
	if got := sampleValue(body, `taskalloc_http_requests_total{route="POST /v1/sweeps",code="200"}`); got != "2" {
		t.Fatalf("http requests sample = %q, want 2", got)
	}

	// Access log: one JSON line per request with route, status, and a
	// request ID.
	logs := logBuf.String()
	if !strings.Contains(logs, `"route":"POST /v1/sweeps"`) ||
		!strings.Contains(logs, `"request_id":`) {
		t.Fatalf("access log missing request records:\n%s", logs)
	}
}

// TestTraceIDPropagation: a client-supplied X-Trace-Id is echoed on the
// response and lands in the access log; responses always carry a
// fresh X-Request-Id; a malformed trace ID is dropped, not echoed.
func TestTraceIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	srv := simserver.New(simserver.Options{AccessLog: &logBuf})
	hs, c, done := newHTTPService(t, srv)
	defer done()
	ctx := context.Background()

	const trace = "trace-abc_123"
	tc := c.WithTraceID(trace)
	if err := tc.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		t.Fatalf("X-Trace-Id echo = %q, want %q", got, trace)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}

	// Malformed IDs (spaces, newlines — log-injection vectors) are
	// dropped.
	req, _ = http.NewRequest(http.MethodGet, hs.URL+"/v1/healthz", nil)
	req.Header.Set("X-Trace-Id", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("malformed trace ID echoed: %q", got)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, `"trace_id":"`+trace+`"`) {
		t.Fatalf("access log missing trace_id %q:\n%s", trace, logs)
	}
	if strings.Contains(logs, "bad id with spaces") {
		t.Fatalf("malformed trace ID reached the log:\n%s", logs)
	}
}

// TestMetricsOpenWithTenants: /v1/metrics stays unauthenticated like
// healthz when tenants are configured, and per-tenant counters appear
// under the tenant's name.
func TestMetricsOpenWithTenants(t *testing.T) {
	srv := simserver.New(simserver.Options{
		Tenants: []simserver.TenantConfig{{Name: "acme", Token: "sekrit"}},
	})
	hs, c, done := newHTTPService(t, srv)
	defer done()

	// Healthz/version are open paths, so exercise an authenticated one:
	// a GET for an unknown sweep still passes auth admission (the 404
	// comes after the rate limiter charges the request).
	if _, err := c.WithToken("sekrit").GetSweep(context.Background(), "nope"); err == nil {
		t.Fatal("expected a 404 for an unknown sweep")
	}
	body := scrape(t, hs.URL) // unauthenticated scrape
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	if got := sampleValue(body, `taskalloc_tenant_requests_total{tenant="acme"}`); got != "1" {
		t.Fatalf("tenant requests sample = %q, want 1", got)
	}
	if strings.Contains(string(body), "sekrit") {
		t.Fatal("exposition leaked a tenant token")
	}
}
