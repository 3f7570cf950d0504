package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"taskalloc"
	"taskalloc/internal/agent"
)

// BisectRequest is the POST /v1/bisect body: an adaptive-grid search
// that refines a γ interval by repeated bisection until every segment's
// regret band (the |ΔAvgRegret| across its endpoints) is at most
// TargetBand, or the evaluation budget runs out. Every evaluated cell
// is an ordinary job — the template with Config.Gamma overridden — so
// the server's job-level result cache makes re-bisection over
// previously-simulated cells nearly free.
type BisectRequest struct {
	// Version is the wire-format version tag (V1).
	Version string `json:"version"`
	// Job is the cell template: its Config is run unchanged except for
	// Gamma, which the search overrides per evaluation. Trajectory is
	// ignored — bisect cells never stream trajectories.
	Job Job `json:"job"`
	// GammaLo and GammaHi bracket the searched learning-rate interval;
	// 0 < GammaLo < GammaHi <= 1/16 (agent.MaxGamma).
	GammaLo float64 `json:"gamma_lo"`
	GammaHi float64 `json:"gamma_hi"`
	// TargetBand is the convergence threshold: a segment is refined
	// while |AvgRegret(hi) − AvgRegret(lo)| exceeds it. Must be > 0.
	TargetBand float64 `json:"target_band"`
	// MaxEvals caps the number of evaluated γ cells (cached ones
	// included); 0 means the server default, and values >= 2 are
	// honored exactly (the endpoints alone cost two evaluations, so 1
	// is rejected). The server rejects values over its own bound.
	MaxEvals int `json:"max_evals,omitempty"`
}

// Validate checks the request's intrinsic invariants (the server layers
// its admission bounds on top).
func (b BisectRequest) Validate() error {
	if b.GammaLo <= 0 || b.GammaHi > agent.MaxGamma || b.GammaLo >= b.GammaHi {
		return fmt.Errorf("wire: bisect needs 0 < gamma_lo < gamma_hi <= %g, got [%g, %g]",
			agent.MaxGamma, b.GammaLo, b.GammaHi)
	}
	if b.TargetBand <= 0 {
		return fmt.Errorf("wire: bisect needs target_band > 0, got %g", b.TargetBand)
	}
	if b.MaxEvals < 0 || b.MaxEvals == 1 {
		// The interval endpoints alone cost two evaluations, so a budget
		// of 1 cannot be honored; 0 selects the server default.
		return fmt.Errorf("wire: bisect needs max_evals of 0 (server default) or >= 2, got %d", b.MaxEvals)
	}
	if b.Job.Rounds < 0 {
		return fmt.Errorf("wire: bisect job rounds %d < 0", b.Job.Rounds)
	}
	return nil
}

// DecodeBisectRequest reads one JSON bisect request. Like DecodeSweep,
// unknown fields and version mismatches are errors.
func DecodeBisectRequest(r io.Reader) (BisectRequest, error) {
	var b BisectRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return BisectRequest{}, fmt.Errorf("wire: decode bisect request: %w", err)
	}
	if b.Version != V1 {
		return BisectRequest{}, fmt.Errorf("wire: unsupported version %q (want %q)", b.Version, V1)
	}
	if err := b.Validate(); err != nil {
		return BisectRequest{}, err
	}
	return b, nil
}

// BisectCell is one evaluated γ point of a bisect response.
type BisectCell struct {
	// Gamma is the evaluated learning rate.
	Gamma float64 `json:"gamma"`
	// JobHash is the γ cell's syntactic hash (JobHash of the template
	// with Gamma overridden), reported for provenance. No cache keys on
	// it: the job tier keys a cell by its trajectory-cleared
	// SemanticHash.
	JobHash string `json:"job_hash"`
	// Cached is true when the cell was served from the job cache.
	Cached bool `json:"cached"`
	// Report holds the cell's simulation metrics; nil when Err != "".
	Report *taskalloc.Report `json:"report,omitempty"`
	// Err is the cell's configuration/validation failure, if it could
	// not run.
	Err string `json:"err,omitempty"`
}

// BisectInterval is one segment of the final γ partition.
type BisectInterval struct {
	// Lo and Hi are the segment's γ endpoints.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Band is |AvgRegret(Hi) − AvgRegret(Lo)|: the regret width the
	// convergence criterion is stated against. NaN (an endpoint cell
	// failed, or its regret is undefined) is null on the wire, like
	// taskalloc.Report's metrics — encoding/json rejects NaN outright,
	// which would otherwise abort the whole response over one segment.
	Band float64 `json:"band"`
}

// bisectIntervalJSON is the wire shadow of BisectInterval (Band
// pointer-mapped so NaN round-trips as null).
type bisectIntervalJSON struct {
	Lo   float64  `json:"lo"`
	Hi   float64  `json:"hi"`
	Band *float64 `json:"band"`
}

// MarshalJSON implements json.Marshaler (NaN/Inf Band → null).
func (b BisectInterval) MarshalJSON() ([]byte, error) {
	j := bisectIntervalJSON{Lo: b.Lo, Hi: b.Hi}
	if !math.IsNaN(b.Band) && !math.IsInf(b.Band, 0) {
		band := b.Band
		j.Band = &band
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler (null Band → NaN).
func (b *BisectInterval) UnmarshalJSON(data []byte) error {
	var j bisectIntervalJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*b = BisectInterval{Lo: j.Lo, Hi: j.Hi, Band: math.NaN()}
	if j.Band != nil {
		b.Band = *j.Band
	}
	return nil
}

// BisectResponse is the POST /v1/bisect body on success.
type BisectResponse struct {
	// Version is the wire-format version tag (V1).
	Version string `json:"version"`
	// ID is the request's behavioral hash (SemanticBisectHash of the
	// request as sent).
	ID string `json:"id"`
	// Cells are the evaluated γ points in ascending γ order.
	Cells []BisectCell `json:"cells"`
	// Intervals is the final segmentation in ascending γ order; when
	// Converged, every Band is at most the request's TargetBand.
	Intervals []BisectInterval `json:"intervals"`
	// Evals counts the evaluated cells (cache hits included);
	// CacheHits counts how many were served from the job cache.
	Evals     int `json:"evals"`
	CacheHits int `json:"cache_hits"`
	// Converged is false when the evaluation budget ran out (or a
	// segment hit the floating-point width floor) before every
	// segment's band met the target.
	Converged bool `json:"converged"`
}
