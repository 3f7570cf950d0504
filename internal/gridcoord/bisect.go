package gridcoord

import (
	"context"
	"encoding/json"

	"taskalloc/internal/bisect"
	"taskalloc/internal/obs"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// Bisect runs a γ-bisection request across the backend set (evalRound).
// The response is identical to the same request POSTed to one
// backend's /v1/bisect — same search path, same cells, same ID — and a
// repeat request is served entirely from the backends' caches. A
// template past the frozen-horizon budget is rejected before anything
// is keyed, with an error wrapping wire.ErrFrozenBudget.
func (c *Coordinator) Bisect(ctx context.Context, req wire.BisectRequest) (*wire.BisectResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := wire.CheckFrozenHorizons([]wire.Job{req.Job}); err != nil {
		return nil, err
	}
	search, err := bisect.New(req, bisect.DefaultMaxEvals)
	if err != nil {
		return nil, err
	}
	c.metrics.bisects.Inc()
	clients := c.traced(obs.NewID())
	resp, err := search.Run(func(jobs []wire.Job, keys []string, cells []wire.BisectCell) error {
		return c.evalRound(ctx, clients, wire.MaxBodyBytes, jobs, keys, cells)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// evalRound evaluates one round (bisect.Search.Run) as a static plan:
// each cell goes to the equal-range owner of its key (Partition), never
// stolen, in as few sub-sweeps of at most limit bytes per owner as
// their encoded size allows (splitBySize), so a repeat search sends
// every backend the sub-sweeps it has cached. A cell is Cached when its sub-sweep's primary stream
// replayed it (X-Sweep-Cache); only a computing (miss) primary is
// backed up, so a backup never changes a cell's Cached.
func (c *Coordinator) evalRound(ctx context.Context, clients []*client.Client, limit int,
	jobs []wire.Job, keys []string, cells []wire.BisectCell) error {
	owners, err := Partition(keys, len(clients))
	if err != nil {
		return err
	}
	queues := make([][]chunk, len(owners))
	for b, idxs := range owners {
		if queues[b], err = splitBySize(idxs, jobs, limit); err != nil {
			return err
		}
	}
	_, err = c.dispatch(ctx, clients, jobs, queues, false,
		func(k int, res wire.Result, cached bool) {
			cells[k].Cached = cached
			if res.Err != "" {
				cells[k].Err = res.Err
			} else {
				cells[k].Report = res.Report
			}
		})
	return err
}

// splitBySize cuts idxs, in order, into the fewest runs whose sub-sweep
// body (wire.MarshalSweep, as the client sends it) is at most limit
// bytes, so no POST is larger than a backend accepts unless it carries
// one job. Sizes come from the jobs' own encodings.
func splitBySize(idxs []int, jobs []wire.Job, limit int) ([]chunk, error) {
	empty, _ := wire.MarshalSweep(wire.Sweep{Jobs: []wire.Job{}}) // no job, no error
	var out []chunk
	size := limit // the first job opens a run
	for _, i := range idxs {
		enc, err := json.Marshal(jobs[i])
		if err != nil {
			return nil, err
		}
		if size += 1 + len(enc); size > limit { // 1: the comma before it
			out = append(out, chunk{})
			size = len(empty) + len(enc)
		}
		out[len(out)-1].idxs = append(out[len(out)-1].idxs, i)
	}
	return out, nil
}
