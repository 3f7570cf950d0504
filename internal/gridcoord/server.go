package gridcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"taskalloc/internal/bisect"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// The coordinator's own HTTP surface: POST /v1/sweeps streams the
// merged grid run as it forms, POST /v1/bisect runs the sharded
// refinement search, and GET /v1/sweeps/{id} serves a completed run's
// status from the registry Run records it in.

// ErrUnknownSweep is returned by SweepStatus (and mapped to 404 by
// Handler) for a sweep ID no completed run in the registry matches.
var ErrUnknownSweep = errors.New("gridcoord: unknown sweep")

// runRetention bounds the completed-run registry SweepStatus serves
// from: the most recent runs, evicted FIFO. A record is the run's
// status — a few hundred bytes per cell.
const runRetention = 32

// recordRun registers a completed run's status, evicting the oldest
// past the retention bound.
func (c *Coordinator) recordRun(status *wire.SweepStatus) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, ok := c.runs[status.ID]; !ok {
		c.runOrder = append(c.runOrder, status.ID)
	}
	c.runs[status.ID] = status
	for len(c.runOrder) > runRetention {
		delete(c.runs, c.runOrder[0])
		c.runOrder = c.runOrder[1:]
	}
}

// SweepStatus returns the single-host GET /v1/sweeps/{id} body of one
// of the last 32 completed grid runs: Run records it from its own
// merge, so it calls no backend, and it holds after a failover, after
// the backends evicted the run's chunks, and with every backend down.
// The status is shared and must not be modified. Returns
// ErrUnknownSweep when no retained run has this ID.
func (c *Coordinator) SweepStatus(id string) (*wire.SweepStatus, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	status := c.runs[id]
	if status == nil {
		return nil, ErrUnknownSweep
	}
	return status, nil
}

// Handler returns the coordinator's HTTP surface: POST /v1/sweeps
// (merged grid stream, ?format=ndjson|csv), POST /v1/bisect (sharded
// refinement search), GET /v1/sweeps/{id} (a retained run's status),
// GET /v1/healthz, and — when Options.Registry is set — GET /v1/metrics
// with the coordinator's own series. cmd/simgrid -serve mounts it.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", c.handleSweep)
	mux.HandleFunc("POST /v1/bisect", c.handleBisect)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweepStatus)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "backends": len(c.clients),
		})
	})
	if c.opts.Registry != nil {
		mux.Handle("GET /v1/metrics", c.opts.Registry)
	}
	return mux
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	format := FormatNDJSON
	switch r.URL.Query().Get("format") {
	case "", "ndjson":
	case "csv":
		format = FormatCSV
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q", r.URL.Query().Get("format"))
		return
	}
	sweep, err := wire.DecodeSweep(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	// Admit the grid as a backend does, then key it in one pass that
	// names the sweep (X-Sweep-Id and the stream header) and places it.
	if err := wire.CheckFrozenHorizons(sweep.Jobs); err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	id, keys, err := wire.SemanticSweepKeys(sweep)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType(string(format)))
	w.Header().Set("X-Sweep-Id", id)
	// The merger flushes the headers and the stream header before any
	// backend is called, so from here on a failure can only truncate
	// the body — the status line is already on the wire. The client's
	// stream decoder treats a short body as an error, so truncation is
	// never silent.
	_, _ = c.run(r.Context(), sweep, id, keys, format, w)
}

func (c *Coordinator) handleBisect(w http.ResponseWriter, r *http.Request) {
	req, err := wire.DecodeBisectRequest(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		httpError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	resp, err := c.Bisect(r.Context(), req)
	if err != nil {
		// The coordinator's own admission and a backend rejection keep a
		// backend's status (the coordinator shares the backends'
		// admission verdicts); anything else is a bad gateway.
		var apiErr *client.APIError
		switch {
		case errors.Is(err, wire.ErrFrozenBudget):
			httpError(w, wire.DecodeStatus(err), "%v", err)
		case errors.As(err, &apiErr):
			httpError(w, apiErr.StatusCode, "%s", apiErr.Message)
		default:
			httpError(w, http.StatusBadGateway, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", bisect.Disposition(*resp))
	_ = json.NewEncoder(w).Encode(resp)
}

func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	status, err := c.SweepStatus(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(status)
}

// httpError writes a plain-text error, mirroring the backends'
// non-tenant error rendering.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
