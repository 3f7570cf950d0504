package simserver

import (
	"encoding/csv"
	"encoding/json"
	"io"

	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// streamRenderer serializes cells to a response body as they complete.
// Fresh runs and cached replays drive the same renderers, so the two
// response bodies are byte-identical by construction.
type streamRenderer interface {
	// cell renders cell i; calls arrive in strict index order.
	cell(i int, c cell)
	// finish flushes any buffered output.
	finish()
}

// newStream builds the response renderer for a (possibly cursored)
// stream. A cursor > 0 skips the CSV header so stitched responses
// concatenate cleanly; the NDJSON header line is always sent (resumed
// clients drop it — it carries the id they already have).
func newStream(w io.Writer, format, id string, jobs, cursor int) streamRenderer {
	if format == "csv" {
		return newCSVRenderer(w, cursor == 0)
	}
	return newNDJSONRenderer(w, wire.StreamHeader{Version: wire.V1, ID: id, Jobs: jobs})
}

// ndjsonRenderer emits the StreamHeader line then one wire.Result line
// per cell, trajectories included.
type ndjsonRenderer struct {
	w   io.Writer
	enc *json.Encoder
}

func newNDJSONRenderer(w io.Writer, header any) *ndjsonRenderer {
	r := &ndjsonRenderer{w: w, enc: json.NewEncoder(w)}
	_ = r.enc.Encode(header) // Encode appends the newline NDJSON needs
	return r
}

func (r *ndjsonRenderer) cell(i int, c cell) {
	if err := r.enc.Encode(resultLine(i, c, true)); err != nil {
		// Encode buffers before writing, so a marshal failure (e.g. a
		// NaN that slipped past the Stat/Report handling) has emitted
		// nothing: the cell still gets its line, as an error. The
		// failure is deterministic per cell, so cached replays render
		// the same bytes.
		_ = r.enc.Encode(wire.Result{Index: i, Meta: c.meta, Err: "encode: " + err.Error()})
	}
}
func (r *ndjsonRenderer) finish() {}

// csvRenderer emits exactly the cmd/sweep CSV (sweeprun's shared
// helpers): header, one row per successful cell, failed cells skipped.
// withHeader false suppresses the header row, so a cursored
// continuation concatenates onto an interrupted response cleanly.
type csvRenderer struct {
	w *csv.Writer
}

func newCSVRenderer(w io.Writer, withHeader bool) *csvRenderer {
	r := &csvRenderer{w: csv.NewWriter(w)}
	if withHeader {
		_ = r.w.Write(sweeprun.CSVHeader())
		r.w.Flush() // so a stream flushed at admission carries the header row
	}
	return r
}

func (r *csvRenderer) cell(_ int, c cell) {
	if c.err != "" {
		return
	}
	_ = r.w.Write(sweeprun.CSVRow(c.meta, c.report, c.rounds))
	r.w.Flush() // per-row so the HTTP flusher has bytes to push
}

func (r *csvRenderer) finish() { r.w.Flush() }
