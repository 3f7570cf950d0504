package gridcoord

import (
	"context"

	"taskalloc/internal/bisect"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// Sharded bisect: the coordinator runs the deterministic refinement
// search itself (internal/bisect — the same loop the backends run for
// POST /v1/bisect) and evaluates each round's γ batch through the same
// dispatcher as a sweep, as a static plan: every cell goes to the
// equal-range owner of its behavioral job hash — the same arithmetic
// as Partition, and never stolen — one sub-sweep per owner. A repeat
// (or behaviorally equivalent) request therefore sends every backend
// the exact sub-sweeps it has already cached: the whole search replays
// as sweep-cache hits, round by round, while a cold search gets every
// round's midpoints evaluated grid-wide instead of bottlenecked on one
// host. An idle backend backs up an owner that is still computing, so
// a slow owner does not hold the round.

// Bisect runs a γ-bisection request across the backend set, sharding
// each refinement round's midpoint batch over all backends by per-γ
// hash affinity, with backups and failover from the shared dispatcher.
// The response is identical to the same request POSTed to one
// backend's /v1/bisect — same search path, same cells, same ID — and a
// repeat request is served entirely from the backends' caches.
func (c *Coordinator) Bisect(ctx context.Context, req wire.BisectRequest) (*wire.BisectResponse, error) {
	if req.Version == "" {
		req.Version = wire.V1
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Hash the request AS SENT — before the MaxEvals default — matching
	// the backends' response-ID convention, so coordinator and backend
	// agree on the public ID of one search.
	id, err := wire.SemanticBisectHash(req)
	if err != nil {
		return nil, err
	}
	if req.MaxEvals == 0 {
		req.MaxEvals = bisect.DefaultMaxEvals
	}
	req.Job.Trajectory = false // bisect cells never stream trajectories
	c.metrics.bisects.Inc()
	clients := c.traced(obs.NewID())
	resp, err := bisect.Run(req, func(gammas []float64) ([]wire.BisectCell, error) {
		return c.evalRound(ctx, clients, req.Job, gammas)
	})
	if err != nil {
		return nil, err
	}
	resp.Version = wire.V1
	resp.ID = id
	return &resp, nil
}

// evalRound evaluates one refinement round's γ batch: tmpl at each γ,
// dispatched one chunk per owning backend. A cell is Cached when its
// owner replayed the sub-sweep from cache (X-Sweep-Cache) — the signal
// bisect.Run's CacheHits accounting builds on. Provenance is the
// owner's even when a backup delivers the cell: only a computing (miss)
// owner is backed up, so a backup never changes a cell's Cached.
func (c *Coordinator) evalRound(ctx context.Context, clients []*client.Client, tmpl wire.Job, gammas []float64) ([]wire.BisectCell, error) {
	cells := make([]wire.BisectCell, len(gammas))
	jobs := make([]wire.Job, len(gammas))
	for k, g := range gammas {
		wj := tmpl
		cfg := wj.Config // value copy; Gamma override stays local
		cfg.Gamma = g
		wj.Config = cfg
		hash, err := wire.JobHash(wj)
		if err != nil {
			return nil, err
		}
		cells[k] = wire.BisectCell{Gamma: g, JobHash: hash}
		jobs[k] = wj
	}
	owners, err := Partition(jobs, len(clients))
	if err != nil {
		return nil, err
	}
	_, err = c.dispatch(ctx, clients, jobs, chunked(owners, 0), false,
		func(k int, res wire.Result, cached bool) {
			cells[k].Cached = cached
			if res.Err != "" {
				cells[k].Err = res.Err
			} else {
				cells[k].Report = res.Report
			}
		})
	if err != nil {
		return nil, err
	}
	return cells, nil
}
