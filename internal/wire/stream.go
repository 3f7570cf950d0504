package wire

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"

	"taskalloc"
	"taskalloc/internal/sweeprun"
)

// StreamHeader is the first NDJSON line of a POST /v1/sweeps response:
// it names the sweep before any cell completes, so clients can poll
// GET /v1/sweeps/{id} even if the stream is interrupted.
type StreamHeader struct {
	Version string `json:"version"`
	// ID is the sweep's semantic hash (SemanticSweepHash), the public
	// sweep ID.
	ID string `json:"id"`
	// Jobs is the grid size; the stream carries exactly this many
	// Result lines after the header, in job order.
	Jobs int `json:"jobs"`
}

// Result is one grid cell's outcome: an NDJSON line of the submit
// stream and an entry of the GET summary. Exactly one of Report and Err
// is set.
type Result struct {
	Index int      `json:"index"`
	Meta  []string `json:"meta,omitempty"`
	// Report holds the simulation metrics (taskalloc.Report, default
	// JSON field names — part of the v1 wire surface).
	Report *taskalloc.Report `json:"report,omitempty"`
	// Err is the configuration/validation failure, if the cell could
	// not run.
	Err string `json:"err,omitempty"`
	// Trajectory is the golden-format trajectory CSV, present only when
	// the job requested it.
	Trajectory string `json:"trajectory,omitempty"`
}

// ContentType is the Content-Type of a sweep body in format ("csv",
// else NDJSON): what a backend and the grid coordinator both send with
// a POST /v1/sweeps stream and a cursored GET.
func ContentType(format string) string {
	if format == "csv" {
		return "text/csv; charset=utf-8"
	}
	return "application/x-ndjson"
}

// ParseQuery reads the query of POST /v1/sweeps (sweep true) or of
// POST /v1/bisect as a backend and the grid coordinator both read it:
// format is a sweep's body format, "ndjson" when absent (a bisect
// answers JSON and leaves ?format= unread), and workers the ?workers=N
// fan-out bound, 0 when absent. An error is a 400's message.
func ParseQuery(q url.Values, sweep bool) (format string, workers int, err error) {
	format = orDefault(q.Get("format"), "ndjson")
	if sweep && format != "ndjson" && format != "csv" {
		return "", 0, fmt.Errorf("unknown format %q (want ndjson or csv)", format)
	}
	if v := q.Get("workers"); v != "" {
		if workers, err = strconv.Atoi(v); err != nil || workers < 1 {
			return "", 0, fmt.Errorf("bad workers %q", v)
		}
	}
	return format, workers, nil
}

// BodyWriter renders a sweep body — the stream a POST /v1/sweeps
// answers and a cursored GET replays — one cell at a time, in job
// order. A backend's fresh, resumed and replayed streams and the grid
// coordinator's merge all write through it, so their bodies are
// byte-identical by construction.
//
// NDJSON is the StreamHeader line, then one Result line per cell,
// trajectories included. CSV is exactly cmd/sweep's output: the
// sweeprun header row, then one sweeprun.CSVRow per successful cell
// (failed cells are skipped), each row flushed as it is written.
type BodyWriter struct {
	enc *json.Encoder // NDJSON; nil for CSV
	csv *csv.Writer   // CSV; nil for NDJSON
	err error         // NDJSON: the first write error
}

// NewBodyWriter starts a body in format ("csv", else NDJSON) on w. The
// NDJSON header line is always written (a resuming client drops it: it
// names the sweep the client already has); the CSV header row is
// written, and flushed, only at cursor 0, so a cursored continuation
// concatenates onto the interrupted body.
func NewBodyWriter(w io.Writer, format string, header StreamHeader, cursor int) *BodyWriter {
	if format == "csv" {
		b := &BodyWriter{csv: csv.NewWriter(w)}
		if cursor == 0 {
			_ = b.csv.Write(sweeprun.CSVHeader())
			b.csv.Flush()
		}
		return b
	}
	b := &BodyWriter{enc: json.NewEncoder(w)}
	b.err = b.enc.Encode(header) // Encode appends the newline NDJSON needs
	return b
}

// Cell writes one cell's result; rounds is its job's horizon (the CSV
// switch rate's denominator). It returns the body's first write error.
// An NDJSON result that cannot be encoded (a NaN that slipped past the
// Report handling, say) still gets its line, carrying an "encode:"
// error: Encode marshals before it writes, so the failed attempt wrote
// nothing, and the failure is deterministic per cell, so every
// rendering of the cell is the same.
func (b *BodyWriter) Cell(res Result, rounds int) error {
	if b.csv != nil {
		if res.Err == "" && res.Report != nil {
			_ = b.csv.Write(sweeprun.CSVRow(res.Meta, *res.Report, rounds))
			b.csv.Flush() // per row, so an HTTP flusher has bytes to push
		}
		return b.csv.Error()
	}
	if b.err != nil {
		return b.err
	}
	if err := b.enc.Encode(res); err != nil {
		b.err = b.enc.Encode(Result{Index: res.Index, Meta: res.Meta, Err: "encode: " + err.Error()})
	}
	return b.err
}

// SweepStatus is the GET /v1/sweeps/{id} body.
type SweepStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "running" | "done" | "resumable"
	Jobs   int    `json:"jobs"`
	Failed int    `json:"failed,omitempty"`
	// Summary aggregates the completed grid (sweeprun.Summarize).
	Summary *sweeprun.Summary `json:"summary,omitempty"`
	// Results are the per-cell outcomes, trajectories elided (fetch
	// them from the submit stream).
	Results []Result `json:"results,omitempty"`
}

// ErrorBody is the JSON error envelope the service returns for tenant
// rejections (401 unauthorized, 403 quota, 429 rate_limited). Plain
// validation errors keep their text/plain bodies; only the tenant layer
// speaks this envelope, so clients can branch on Kind.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Kind discriminates the rejection: "unauthorized" | "quota" |
	// "rate_limited".
	Kind string `json:"kind"`
	// RetryAfterMS is set only for rate_limited: how long until the
	// token bucket readmits this tenant.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
