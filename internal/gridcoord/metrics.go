package gridcoord

import (
	"strconv"

	"taskalloc/internal/obs"
)

// gridMetrics is the coordinator's own telemetry: run counts and,
// counted by tally from the runs' events, steals, backups, failure
// handling, and per-backend delivered jobs and stream latency (backend
// label = index into Options.Backends, the same index every Event
// carries). A backend's delivery rate is the ratio of the increases of
// its jobs_delivered_total and backend_stream_seconds_sum series.
// Families register on Options.Registry when the caller provides one —
// cmd/simgrid serves it on its own /v1/metrics — and on a private
// throwaway registry otherwise, so the recording path is unconditional.
// Metric names register once: give each Coordinator its own Registry.
type gridMetrics struct {
	sweeps       *obs.Counter
	bisects      *obs.Counter
	redispatches *obs.Counter
	retried      *obs.Counter
	lost         *obs.Counter
	steals       *obs.Counter
	backups      *obs.Counter

	// Per-backend children, indexed like Options.Backends.
	delivered  []*obs.Counter
	streamSecs []*obs.Histogram
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
		backups: r.Counter("taskalloc_grid_backups_total",
			"In-flight job chunks re-run by an idle backend (backup streams)."),
	}
	deliveredVec := r.CounterVec("taskalloc_grid_jobs_delivered_total",
		"Job results merged (each job's first delivered copy, sweep jobs and bisect cells alike), by backend index.", "backend")
	streamVec := r.HistogramVec("taskalloc_grid_backend_stream_seconds",
		"Wall-clock duration of one backend sub-sweep stream.", nil, "backend")
	for b := 0; b < backends; b++ {
		lbl := strconv.Itoa(b)
		m.delivered = append(m.delivered, deliveredVec.With(lbl))
		m.streamSecs = append(m.streamSecs, streamVec.With(lbl))
	}
	return m
}
