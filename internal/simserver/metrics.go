package simserver

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"taskalloc/internal/obs"
	"taskalloc/internal/sweeprun"
)

// Telemetry layer (DESIGN.md §14): every counter the server keeps lives
// on obs primitives — atomic, monotone, and rendered on GET /v1/metrics
// in Prometheus text format, their one export — and the request path
// is wrapped with per-route latency/status accounting, a per-request
// ID, optional structured access logging, and per-stage histograms
// (admission, cache lookup, engine run, render, journal append).

// serverMetrics is one Server's metric families, with the hot-path
// histogram children resolved once at construction (Vec lookups take a
// lock; Observe on a child is atomic-only).
type serverMetrics struct {
	reg *obs.Registry

	requests   *obs.CounterVec   // route, code
	reqLatency *obs.HistogramVec // route

	// Per-stage latency children of taskalloc_stage_seconds.
	stageAdmission     *obs.Histogram
	stageCacheLookup   *obs.Histogram
	stageQueueWait     *obs.Histogram
	stageEngineRun     *obs.Histogram
	stageRender        *obs.Histogram
	stageJournalAppend *obs.Histogram

	// Cache-disposition counters.
	sweepHits        *obs.Counter
	sweepMisses      *obs.Counter
	sweepCoalesced   *obs.Counter
	aliasHits        *obs.Counter
	sweepJobHits     *obs.Counter
	sweepJobMisses   *obs.Counter
	bisectJobHits    *obs.Counter
	bisectJobMisses  *obs.Counter
	bisectCoalesced  *obs.Counter
	diskSweepHits    *obs.Counter
	diskResumes      *obs.Counter
	jobCacheDiskHits *obs.Counter
	persistErrors    *obs.Counter

	// Per-tenant counter families (children cached on each tenant).
	tenantRequests      *obs.CounterVec
	tenantRateLimited   *obs.CounterVec
	tenantQuotaRejected *obs.CounterVec
	tenantJobs          *obs.CounterVec
}

// newServerMetrics registers the server's families. Gauges over live
// sizes (cache entries/bytes, store sizes) read the owning subsystem at
// collection time rather than shadowing it.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	m.requests = r.CounterVec("taskalloc_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	m.reqLatency = r.HistogramVec("taskalloc_http_request_seconds",
		"End-to-end request latency in seconds, by route pattern.", nil, "route")

	stages := r.HistogramVec("taskalloc_stage_seconds",
		"Per-stage processing latency in seconds: admission (decode+bounds+quota), "+
			"cache_lookup, queue_wait (admission-gate wait per job), engine_run (one "+
			"simulation), render (one cell's response bytes), journal_append (one "+
			"checkpoint record).", nil, "stage")
	m.stageAdmission = stages.With("admission")
	m.stageCacheLookup = stages.With("cache_lookup")
	m.stageQueueWait = stages.With("queue_wait")
	m.stageEngineRun = stages.With("engine_run")
	m.stageRender = stages.With("render")
	m.stageJournalAppend = stages.With("journal_append")

	sweep := r.CounterVec("taskalloc_sweep_requests_total",
		"POST /v1/sweeps submissions by cache disposition.", "disposition")
	m.sweepHits = sweep.With("hit")
	m.sweepMisses = sweep.With("miss")
	m.sweepCoalesced = sweep.With("coalesced")
	m.aliasHits = r.Counter("taskalloc_semantic_alias_hits_total",
		"Cache hits whose syntactic hash differed from the entry creator's.")

	sweepJobs := r.CounterVec("taskalloc_sweep_job_cache_total",
		"Job-tier lookups for the cells fresh and resumed sweeps must produce "+
			"(a journal's recovered prefix is not looked up; a trajectory cell is a miss).", "outcome")
	m.sweepJobHits = sweepJobs.With("hit")
	m.sweepJobMisses = sweepJobs.With("miss")
	bisectJobs := r.CounterVec("taskalloc_bisect_job_cache_total",
		"Bisect cell evaluations against the job-level result cache.", "outcome")
	m.bisectJobHits = bisectJobs.With("hit")
	m.bisectJobMisses = bisectJobs.With("miss")
	m.bisectCoalesced = r.Counter("taskalloc_bisect_coalesced_total",
		"Bisect requests that joined an in-flight equivalent execution.")

	m.diskSweepHits = r.Counter("taskalloc_disk_sweep_hits_total",
		"Sweeps served entirely from an on-disk journal.")
	m.diskResumes = r.Counter("taskalloc_disk_resumes_total",
		"Incomplete journals resumed (prefix replayed, remainder executed).")
	m.jobCacheDiskHits = r.Counter("taskalloc_job_cache_disk_hits_total",
		"Sweep and bisect cells served from the journal store's key index.")
	m.persistErrors = r.Counter("taskalloc_persist_errors_total",
		"Best-effort durability failures (request served from memory).")

	r.GaugeFunc("taskalloc_sweep_cache_entries",
		"Memory-tier entries currently held, sweeps' and bisect searches', in flight or completed.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.entries))
		})
	r.GaugeFunc("taskalloc_sweep_cache_bytes",
		"Bytes charged to the memory tier's entries, sweeps' and bisect searches'.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.cacheSize)
		})
	r.GaugeFunc("taskalloc_store_journals",
		"Journals, of sweeps and bisect searches, in the durability store (0 when durability is off).", func() float64 {
			if s.store == nil {
				return 0
			}
			n, _ := s.store.Stats()
			return float64(n)
		})
	r.GaugeFunc("taskalloc_store_bytes",
		"Bytes held by the journal store.", func() float64 {
			if s.store == nil {
				return 0
			}
			_, b := s.store.Stats()
			return float64(b)
		})
	r.CounterFunc("taskalloc_store_appends_total",
		"Journal checkpoint records appended.", func() float64 {
			if s.store == nil {
				return 0
			}
			a, _ := s.store.Counters()
			return float64(a)
		})
	r.CounterFunc("taskalloc_store_evictions_total",
		"Complete journals evicted past the store's byte budget.", func() float64 {
			if s.store == nil {
				return 0
			}
			_, e := s.store.Counters()
			return float64(e)
		})

	m.tenantRequests = r.CounterVec("taskalloc_tenant_requests_total",
		"Authenticated requests admitted past the rate limiter, by tenant.", "tenant")
	m.tenantRateLimited = r.CounterVec("taskalloc_tenant_rate_limited_total",
		"Requests rejected 429 by the tenant token bucket.", "tenant")
	m.tenantQuotaRejected = r.CounterVec("taskalloc_tenant_quota_rejected_total",
		"Submissions rejected 403 by the tenant job quota.", "tenant")
	m.tenantJobs = r.CounterVec("taskalloc_tenant_jobs_submitted_total",
		"Cumulative jobs charged against the tenant quota (a sweep its jobs, a bisect its evaluation budget).", "tenant")
	return m
}

// observeJobTiming is the sweeprun per-job timing hook: one queue-wait
// and one engine-run observation per executed job. It is called from
// worker goroutines; the histogram children are atomic-only.
func (s *Server) observeJobTiming(t sweeprun.Timing) {
	s.metrics.stageQueueWait.Observe(t.QueueWait.Seconds())
	s.metrics.stageEngineRun.Observe(t.Run.Seconds())
}

// statusWriter captures the response status and byte count for the
// request log and metrics. It preserves http.Flusher — the streaming
// renderers flush per cell — and defaults to 200 like net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through to the wrapped writer so streamed responses
// keep their per-cell flush behavior.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// sanitizeTraceID accepts a propagated X-Trace-Id only when it is a
// short token of URL- and log-safe characters — anything else is
// dropped rather than echoed into logs and headers.
func sanitizeTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'z' ||
			c >= 'A' && c <= 'Z' || c == '-' || c == '_'
		if !ok {
			return ""
		}
	}
	return id
}

// instrumented is the request-path wrapper ServeHTTP dispatches
// through: route resolution, request/trace IDs, status capture,
// per-route metrics, and the optional structured access log.
func (s *Server) instrumented(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "other"
	}
	reqID := obs.NewID()
	traceID := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
	w.Header().Set("X-Request-Id", reqID)
	if traceID != "" {
		w.Header().Set("X-Trace-Id", traceID)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

	if s.auth != nil {
		s.middleware(sw, r)
	} else {
		s.mux.ServeHTTP(sw, r)
	}

	elapsed := time.Since(start)
	s.metrics.requests.With(route, strconv.Itoa(sw.status)).Inc()
	s.metrics.reqLatency.With(route).Observe(elapsed.Seconds())
	if s.accessLog != nil {
		attrs := make([]slog.Attr, 0, 9)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
			slog.String("request_id", reqID),
		)
		if traceID != "" {
			attrs = append(attrs, slog.String("trace_id", traceID))
		}
		if cache := sw.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, slog.String("cache", cache))
		}
		s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
	}
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.reg.ServeHTTP(w, r)
}
