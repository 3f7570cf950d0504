// Package bisect implements the deterministic γ-bisection refinement
// search shared by the simulation service (internal/simserver, which
// evaluates batches locally over its job-level result cache) and the
// grid coordinator (internal/gridcoord, which shards each batch across
// backends by hash affinity). The search itself is a pure function of
// the request plus the evaluated reports: segment order, midpoint
// arithmetic, and batch composition never depend on who evaluated a
// cell or how long it took, so every executor walks the identical γ
// sequence — which is what lets a repeat request replay entirely from
// caches, wherever those caches live.
//
// Everything else a search means is written here once too (Search and
// Disposition), so an executor only evaluates each round's keyed cells.
package bisect

import (
	"fmt"
	"math"
	"sort"

	"taskalloc/internal/wire"
)

// GammaWidthFloor stops refining a segment whose γ width cannot
// meaningfully halve in float64 — without it, a regret band that never
// narrows (a noise floor) would burn the whole budget on one segment.
const GammaWidthFloor = 1e-9

// Evaluator evaluates one refinement round's γ batch, returning exactly
// one cell per γ, in batch order. Implementations set Cached on cells
// served from a cache (Run's CacheHits accounting counts them) and
// carry per-cell failures in the cell's Err field; a returned error
// aborts the whole search.
type Evaluator func(gammas []float64) ([]wire.BisectCell, error)

// segment is one live interval of the refinement loop, holding the
// evaluated cell indices of its endpoints.
type segment struct {
	lo, hi int // indices into cells
}

// Run executes the refinement search: evaluate the endpoints, then
// repeatedly evaluate the midpoints of every segment whose regret band
// — |ΔAvgRegret| across its endpoints — exceeds req.TargetBand, until
// every segment converges or req.MaxEvals is spent (the final round is
// truncated deterministically, leading segments first). req.MaxEvals
// must be positive: New applies the default for 0.
//
// The response carries Cells (sorted ascending by γ), Intervals (the
// final segmentation in γ order), Evals, CacheHits, and Converged;
// Version and ID are the caller's to stamp (Search.Run stamps them).
func Run(req wire.BisectRequest, eval Evaluator) (wire.BisectResponse, error) {
	var (
		resp  wire.BisectResponse
		cells []wire.BisectCell
	)
	regret := func(i int) float64 {
		if cells[i].Err != "" || cells[i].Report == nil {
			return math.NaN()
		}
		return cells[i].Report.AvgRegret
	}
	band := func(seg segment) float64 {
		return math.Abs(regret(seg.hi) - regret(seg.lo))
	}
	evaluate := func(gammas []float64) error {
		batch, err := eval(gammas)
		if err != nil {
			return err
		}
		if len(batch) != len(gammas) {
			return fmt.Errorf("bisect: evaluator returned %d cells for %d gammas",
				len(batch), len(gammas))
		}
		for _, c := range batch {
			resp.Evals++
			if c.Cached {
				resp.CacheHits++
			}
		}
		cells = append(cells, batch...)
		return nil
	}

	if err := evaluate([]float64{req.GammaLo, req.GammaHi}); err != nil {
		return wire.BisectResponse{}, err
	}
	segments := []segment{{lo: 0, hi: 1}}

	for {
		// Collect the midpoints of every refinable over-target segment;
		// segments stay sorted by γ, so the batch is deterministic.
		type split struct {
			seg int
			mid float64
		}
		var splits []split
		for i, seg := range segments {
			if b := band(seg); math.IsNaN(b) || b <= req.TargetBand {
				continue
			}
			lo, hi := cells[seg.lo].Gamma, cells[seg.hi].Gamma
			if hi-lo < GammaWidthFloor {
				continue
			}
			mid := (lo + hi) / 2
			if mid <= lo || mid >= hi {
				continue
			}
			splits = append(splits, split{seg: i, mid: mid})
		}
		if len(splits) == 0 {
			break
		}
		if budget := req.MaxEvals - resp.Evals; len(splits) > budget {
			// Budget exhausted mid-round: refine the leading segments
			// (deterministic truncation) and stop after this batch.
			if budget <= 0 {
				break
			}
			splits = splits[:budget]
		}
		gammas := make([]float64, len(splits))
		for i, sp := range splits {
			gammas[i] = sp.mid
		}
		first := len(cells)
		if err := evaluate(gammas); err != nil {
			return wire.BisectResponse{}, err
		}
		// Rebuild the segmentation with each split segment halved, in γ
		// order (splits are in ascending segment order already).
		next := make([]segment, 0, len(segments)+len(splits))
		si := 0
		for i, seg := range segments {
			if si < len(splits) && splits[si].seg == i {
				mid := first + si
				next = append(next, segment{lo: seg.lo, hi: mid}, segment{lo: mid, hi: seg.hi})
				si++
			} else {
				next = append(next, seg)
			}
		}
		segments = next
	}

	resp.Converged = true
	for _, seg := range segments {
		b := band(seg)
		resp.Intervals = append(resp.Intervals, wire.BisectInterval{
			Lo: cells[seg.lo].Gamma, Hi: cells[seg.hi].Gamma, Band: b,
		})
		if math.IsNaN(b) || b > req.TargetBand {
			resp.Converged = false
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Gamma < cells[j].Gamma })
	resp.Cells = cells
	return resp, nil
}

// A Search is one bisect request made ready to run. Its ID and the
// result key and decode of every γ cell of every round share one
// schedule memo (wire.AdmitBisect), so the template's schedule, which
// every cell shares, is decoded and normalized once per search.
type Search struct {
	// ID is the response ID: wire.SemanticBisectHash of the request as
	// sent, so a backend and a coordinator agree whatever their defaults.
	ID    string
	req   wire.BisectRequest
	cells func([]wire.Job) (*wire.Grid, error)
}

// New admits and keys req (wire.AdmitBisect), the one place a bisect
// request is admitted: the error of a request a backend rejects wraps
// wire.ErrAdmission. After hashing its ID, a MaxEvals of 0 becomes
// wire.MaxBisectEvals, and Trajectory is cleared (bisect cells never
// stream trajectories).
func New(req wire.BisectRequest) (*Search, error) {
	id, cells, err := wire.AdmitBisect(req)
	if err != nil {
		return nil, err
	}
	if req.MaxEvals == 0 {
		req.MaxEvals = wire.MaxBisectEvals
	}
	req.Job.Trajectory = false
	return &Search{ID: id, req: req, cells: cells}, nil
}

// Budget is the search's evaluation budget: the request's max_evals,
// or wire.MaxBisectEvals when it left max_evals 0.
func (s *Search) Budget() int { return s.req.MaxEvals }

// Run runs the search (Run) and stamps the response's Version and ID.
// Each round, eval gets the γ cells: g, their grid — g.Jobs[i] is the
// template with Config.Gamma overridden, g.Keys[i] its result key (the
// trajectory-cleared SemanticHash) and g.Decode its runnable jobs — and
// cells[i], its response cell with Gamma and JobHash set, which eval
// completes in place (Cached, and Report or Err). An error aborts the
// search.
func (s *Search) Run(eval func(g *wire.Grid, cells []wire.BisectCell) error) (wire.BisectResponse, error) {
	resp, err := Run(s.req, func(gammas []float64) ([]wire.BisectCell, error) {
		jobs := make([]wire.Job, len(gammas))
		cells := make([]wire.BisectCell, len(gammas))
		for i, g := range gammas {
			jobs[i] = s.req.Job
			jobs[i].Config.Gamma = g
			hash, err := wire.JobHash(jobs[i])
			if err != nil {
				return nil, err
			}
			cells[i] = wire.BisectCell{Gamma: g, JobHash: hash}
		}
		g, err := s.cells(jobs)
		if err != nil {
			return nil, err
		}
		return cells, eval(g, cells)
	})
	resp.Version, resp.ID = wire.V1, s.ID
	return resp, err
}

// Disposition is a completed search's X-Cache verdict: "hit" when every
// evaluated cell came from a cache (cache_hits == evals), else "miss".
func Disposition(resp wire.BisectResponse) string {
	if resp.Evals > 0 && resp.CacheHits == resp.Evals {
		return "hit"
	}
	return "miss"
}
