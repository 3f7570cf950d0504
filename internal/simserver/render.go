package simserver

import (
	"io"

	"taskalloc/internal/wire"
)

// newBody starts the response body of sweep id (jobs cells) from
// cursor on, through the one wire.BodyWriter every sweep body is
// rendered with, and returns the function that renders cell i; calls
// must arrive in strict index order. Fresh runs and replays render
// alike, so their bodies are byte-identical by construction.
func newBody(w io.Writer, format, id string, jobs, cursor int) func(i int, c cell) {
	body := wire.NewBodyWriter(w, format, wire.StreamHeader{Version: wire.V1, ID: id, Jobs: jobs}, cursor)
	traj := format != "csv" // a CSV row carries no trajectory
	return func(i int, c cell) {
		_ = body.Cell(resultLine(i, c, traj), c.rounds)
	}
}
