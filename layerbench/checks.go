package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"taskalloc/internal/bisect"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// Correctness gates. Every mismatch counts as a failed request: it is
// included in the run's failed count (and so in error_rate), and any
// failure makes the run exit non-zero.

// bisectPath digests a bisect response's search path: the γ values,
// reports, intervals, and outcome — everything except the cache
// provenance. `cached` and `cache_hits` are left out because today they
// depend on timing, not on the request: a repeat served from the job
// cache, or a request that joins an in-flight one, reports different
// provenance for the same search (ROADMAP.md, first open item:
// provenance lives in the bisect body instead of a header).
func bisectPath(r wire.BisectResponse) (string, error) {
	r.CacheHits = 0
	cells := make([]wire.BisectCell, len(r.Cells))
	for i, c := range r.Cells {
		c.Cached = false
		cells[i] = c
	}
	r.Cells = cells
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode bisect path: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkInline applies the gates that need no extra work: equality with
// an earlier step of the session (durable-reuse), and shared-cell
// agreement.
func (e *env) checkInline(q request, o outcome, got map[string]outcome) error {
	if q.sameAs != "" {
		prev, ok := got[q.sameAs]
		if !ok {
			return fmt.Errorf("step %s it must reproduce did not succeed", q.sameAs)
		}
		if o.digest != prev.digest {
			return fmt.Errorf("differs from step %s", q.sameAs)
		}
	}
	if q.sharesWith != "" {
		prev, ok := got[q.sharesWith]
		if !ok {
			return fmt.Errorf("step %s it shares cells with did not succeed", q.sharesWith)
		}
		for k := 0; k < q.shared; k++ {
			if err := sameReport(prev.results[k], o.results[k]); err != nil {
				return fmt.Errorf("shared cell %d: %w", k, err)
			}
		}
	}
	return nil
}

func sameReport(a, b wire.Result) error {
	ja, err := json.Marshal(a.Report)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b.Report)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("reports differ:\n %s\n %s", ja, jb)
	}
	return nil
}

// pendingCheck is a sampled step re-executed untimed after the loop.
type pendingCheck struct {
	req request
	out outcome
}

// Sampled re-execution budget per run.
const (
	maxSweepSamples  = 12
	maxBisectSamples = 3
)

// verifySamples re-executes grid-hetero's sampled steps outside the
// timed loop: a grid is re-POSTed to the single reference backend and
// must come back byte-identical; a fresh bisect re-runs through
// internal/bisect over a local sweeprun evaluator and must walk the same
// search path. (durable-reuse checks every response inline instead.)
func (e *env) verifySamples(ctx context.Context, rec *loopRecord) {
	if len(rec.pending) == 0 {
		return
	}
	ref := newDriver(e.ref.url)
	defer ref.close()
	sweeps, bisects := 0, 0
	for _, p := range rec.pending {
		var err error
		switch p.req.kind {
		case kindSweep:
			if sweeps++; sweeps > maxSweepSamples {
				continue
			}
			want := ref.do(ctx, p.req, nil)
			if err = want.err; err == nil && want.digest != p.out.digest {
				err = fmt.Errorf("body differs from the single-backend re-POST")
			}
		case kindBisect:
			if bisects++; bisects > maxBisectSamples {
				continue
			}
			var want string
			if want, err = localBisectPath(p.req.bisect); err == nil && want != p.out.digest {
				err = fmt.Errorf("search path differs from the local re-run")
			}
		}
		if err != nil {
			rec.fail("%s sampled %s: %v", e.w.name, p.req.role, err)
		}
	}
}

// localBisectPath runs the bisect search in-process — the shared
// refinement loop over a sweeprun evaluator — and digests its path the
// way bisectPath digests a served one.
func localBisectPath(req wire.BisectRequest) (string, error) {
	id, err := wire.SemanticBisectHash(req)
	if err != nil {
		return "", err
	}
	resp, err := bisect.Run(req, func(gammas []float64) ([]wire.BisectCell, error) {
		sw := wire.Sweep{Version: wire.V1}
		for _, g := range gammas {
			j := req.Job
			j.Trajectory = false
			j.Config.Gamma = g
			sw.Jobs = append(sw.Jobs, j)
		}
		jobs, err := wire.ToJobs(sw)
		if err != nil {
			return nil, err
		}
		res := sweeprun.Run(jobs, sweeprun.Options{Workers: nproc()})
		cells := make([]wire.BisectCell, len(gammas))
		for i, r := range res {
			h, err := wire.JobHash(sw.Jobs[i])
			if err != nil {
				return nil, err
			}
			cells[i] = wire.BisectCell{Gamma: gammas[i], JobHash: h}
			if r.Err != nil {
				cells[i].Err = r.Err.Error()
			} else {
				rep := r.Report
				cells[i].Report = &rep
			}
		}
		return cells, nil
	})
	if err != nil {
		return "", err
	}
	resp.Version, resp.ID = wire.V1, id
	return bisectPath(resp)
}
