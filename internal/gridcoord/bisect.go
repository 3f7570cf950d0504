package gridcoord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"taskalloc/internal/bisect"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// Sharded bisect: the coordinator runs the deterministic refinement
// search itself (internal/bisect — the same loop the backends run for
// POST /v1/bisect) and evaluates each round's γ batch by sharding it
// across ALL backends, one sub-sweep per owning backend, in parallel.
// A cell's owner is the equal-range owner of its behavioral job hash —
// the same arithmetic as Partition, and never stolen — so a repeat (or
// behaviorally equivalent) request sends every backend the exact
// sub-sweeps it has already cached: the whole search replays as sweep-
// cache hits, round by round, while a cold search gets every round's
// midpoints evaluated grid-wide instead of bottlenecked on one host.

// Bisect runs a γ-bisection request across the backend set, sharding
// each refinement round's midpoint batch over all backends by per-γ
// hash affinity, with failover to the next surviving backend per
// shard. The response is identical to the same request POSTed to one
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
		req.MaxEvals = c.opts.MaxBisectEvals
	}
	req.Job.Trajectory = false // bisect cells never stream trajectories
	c.metrics.bisects.Inc()
	traceID := obs.NewID()
	clients := make([]*client.Client, len(c.clients))
	for b, cl := range c.clients {
		clients[b] = cl.WithTraceID(traceID)
	}
	resp, err := bisect.Run(req, c.shardEvaluator(ctx, clients, req))
	if err != nil {
		return nil, err
	}
	resp.Version = wire.V1
	resp.ID = id
	return &resp, nil
}

// shardEvaluator evaluates one refinement round's γ batch grid-wide:
// group the cells by owning backend (hash affinity over each cell's
// behavioral job hash), submit one sub-sweep per owner in parallel,
// and mark a group's cells Cached when its backend replayed the
// sub-sweep from cache (X-Sweep-Cache) — the signal bisect.Run's
// CacheHits accounting and the warm-hit classification build on.
func (c *Coordinator) shardEvaluator(ctx context.Context, clients []*client.Client, req wire.BisectRequest) bisect.Evaluator {
	return func(gammas []float64) ([]wire.BisectCell, error) {
		cells := make([]wire.BisectCell, len(gammas))
		jobs := make([]wire.Job, len(gammas))
		groups := make(map[int][]int)
		for k, g := range gammas {
			wj := req.Job
			cfg := wj.Config // value copy; Gamma override stays local
			cfg.Gamma = g
			wj.Config = cfg
			hash, err := wire.JobHash(wj)
			if err != nil {
				return nil, err
			}
			sem, err := wire.SemanticHash(wj)
			if err != nil {
				return nil, err
			}
			owner, err := rangeIndex(sem, len(clients))
			if err != nil {
				return nil, err
			}
			cells[k] = wire.BisectCell{Gamma: g, JobHash: hash}
			jobs[k] = wj
			groups[owner] = append(groups[owner], k)
		}
		owners := make([]int, 0, len(groups))
		for owner := range groups {
			owners = append(owners, owner)
		}
		sort.Ints(owners)

		var wg sync.WaitGroup
		errs := make([]error, len(owners))
		for gi, owner := range owners {
			wg.Add(1)
			go func(gi, owner int, poss []int) {
				defer wg.Done()
				errs[gi] = c.submitShard(ctx, clients, owner, poss, jobs, cells)
			}(gi, owner, groups[owner])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return cells, nil
	}
}

// submitShard runs one owner group's cells as a sub-sweep on the owning
// backend, failing over ((owner+k) mod n) on transport/5xx/429 errors.
// Results land in cells at the group's positions.
func (c *Coordinator) submitShard(ctx context.Context, clients []*client.Client,
	owner int, poss []int, jobs []wire.Job, cells []wire.BisectCell) error {
	sub := wire.Sweep{Version: wire.V1, Jobs: make([]wire.Job, len(poss))}
	for j, k := range poss {
		sub.Jobs[j] = jobs[k]
	}
	var lastErr error
	for k := 0; k < len(clients); k++ {
		b := (owner + k) % len(clients)
		subm, err := clients[b].SubmitSweep(ctx, sub, client.SubmitOptions{Workers: c.opts.Workers}, nil)
		if err == nil {
			if len(subm.Results) != len(poss) {
				return fmt.Errorf("gridcoord: backend %d returned %d results for %d bisect cells",
					b, len(subm.Results), len(poss))
			}
			for j, res := range subm.Results {
				cell := &cells[poss[j]]
				cell.Cached = subm.Cached
				if res.Err != "" {
					cell.Err = res.Err
				} else {
					cell.Report = res.Report
				}
			}
			return nil
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
			apiErr.StatusCode != http.StatusTooManyRequests {
			return err // rejection: identical everywhere (429 is transient)
		}
		lastErr = err
	}
	return fmt.Errorf("gridcoord: all backends failed bisect shard: %w", lastErr)
}
