package gridcoord

import (
	"strconv"
	"time"

	"taskalloc/internal/obs"
)

// gridMetrics is the coordinator's own telemetry: run counts, failure
// handling, and per-backend delivery/stream-latency/throughput series
// (backend label = index into Options.Backends, the same index every
// Event carries). Families register on Options.Registry when the
// caller provides one — cmd/simgrid serves it on its own /v1/metrics —
// and on a private throwaway registry otherwise, so the recording path
// is unconditional. Metric names register once: give each Coordinator
// its own Registry.
type gridMetrics struct {
	sweeps       *obs.Counter
	bisects      *obs.Counter
	redispatches *obs.Counter
	retried      *obs.Counter
	lost         *obs.Counter
	steals       *obs.Counter

	// Per-backend children, indexed like Options.Backends.
	delivered  []*obs.Counter
	streamSecs []*obs.Histogram
	throughput []*obs.Gauge
	assigned   []*obs.Gauge
}

func newGridMetrics(r *obs.Registry, backends int) *gridMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	m := &gridMetrics{
		sweeps: r.Counter("taskalloc_grid_sweeps_total",
			"Sweeps sharded across the backend set."),
		bisects: r.Counter("taskalloc_grid_bisects_total",
			"Bisect requests sharded across the backend set."),
		redispatches: r.Counter("taskalloc_grid_redispatches_total",
			"Failed ranges re-submitted to a surviving backend."),
		retried: r.Counter("taskalloc_grid_jobs_retried_total",
			"Job re-submissions after backend failures."),
		lost: r.Counter("taskalloc_grid_backends_lost_total",
			"Backends marked dead during runs."),
		steals: r.Counter("taskalloc_grid_steals_total",
			"Job chunks claimed from another backend's queue (work stealing)."),
	}
	deliveredVec := r.CounterVec("taskalloc_grid_jobs_delivered_total",
		"Job results delivered, by backend index.", "backend")
	streamVec := r.HistogramVec("taskalloc_grid_backend_stream_seconds",
		"Wall-clock duration of one backend sub-sweep stream.", nil, "backend")
	thrVec := r.GaugeVec("taskalloc_grid_backend_throughput_jobs_per_second",
		"Observed delivery rate of the backend's most recent stream.", "backend")
	assignedVec := r.GaugeVec("taskalloc_grid_backend_assigned_jobs",
		"Jobs currently assigned to the backend (initial range minus stolen away plus stolen in), for the most recent run.", "backend")
	for b := 0; b < backends; b++ {
		lbl := strconv.Itoa(b)
		m.delivered = append(m.delivered, deliveredVec.With(lbl))
		m.streamSecs = append(m.streamSecs, streamVec.With(lbl))
		m.throughput = append(m.throughput, thrVec.With(lbl))
		m.assigned = append(m.assigned, assignedVec.With(lbl))
	}
	return m
}

// streamDone records one finished backend stream: jobs delivered, the
// stream's wall-clock duration, and the observed throughput (jobs per
// second over the stream, 0 for an instant or empty stream).
func (m *gridMetrics) streamDone(b, delivered int, elapsed time.Duration) {
	m.delivered[b].Add(uint64(delivered))
	m.streamSecs[b].Observe(elapsed.Seconds())
	if secs := elapsed.Seconds(); secs > 0 && delivered > 0 {
		m.throughput[b].Set(float64(delivered) / secs)
	} else {
		m.throughput[b].Set(0)
	}
}
