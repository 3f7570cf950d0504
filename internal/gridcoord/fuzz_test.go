package gridcoord

import (
	"bytes"
	"encoding/json"
	"testing"

	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// FuzzBackendStream drives arbitrary bytes through the exact path a
// backend response takes into the merged output: client.DecodeStream,
// the coordinator's stream-order checks, and the NDJSON merger, which
// renders through the wire.BodyWriter every backend renders with. The
// contract under fuzzing: malformed, truncated, or reordered input must
// surface as an error — never a panic, and never bytes that diverge
// from the deterministic rendering of the correctly delivered prefix.
// The decode → check → merge pipeline is also required to be a pure
// function of its input (two passes, identical output).
func FuzzBackendStream(f *testing.F) {
	header := func(jobs int) string {
		b, _ := json.Marshal(wire.StreamHeader{Version: wire.V1, ID: "fuzz", Jobs: jobs})
		return string(b) + "\n"
	}
	line := func(idx int) string {
		b, _ := json.Marshal(wire.Result{Index: idx, Meta: []string{"i"}, Err: "x"})
		return string(b) + "\n"
	}
	f.Add([]byte(header(3) + line(0) + line(1) + line(2))) // well-formed
	f.Add([]byte(header(3) + line(0) + line(1)))           // truncated
	f.Add([]byte(header(3) + line(0) + line(2) + line(1))) // reordered
	f.Add([]byte(header(3) + line(0) + "{malformed\n" + line(2)))
	f.Add([]byte(header(5) + line(0) + line(1) + line(2) + line(3) + line(4))) // more than the chunk
	f.Add([]byte(""))
	f.Add([]byte("not json\n"))
	f.Add([]byte(header(0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		run := func() ([]byte, bool) {
			// The chunk under merge: global indices 0..2 of a 3-job grid,
			// mirroring one backend sub-sweep.
			idxs := []int{0, 1, 2}
			var out bytes.Buffer
			m := newMerger(&out, FormatNDJSON, "merged", make([]wire.Job, len(idxs)))
			var delivered []wire.Result
			var protoErr bool
			_, err := client.DecodeStream(bytes.NewReader(data), 0, true, func(res wire.Result) {
				// The same order discipline Coordinator.stream enforces: a
				// line off the strict local sequence poisons the stream
				// instead of reaching the merger.
				if protoErr {
					return
				}
				if res.Index != len(delivered) || len(delivered) >= len(idxs) {
					protoErr = true
					return
				}
				delivered = append(delivered, res)
				m.deliver(idxs[res.Index], res)
			})
			// A stream that decodes cleanly but delivers too few results (a
			// header under-claiming the job count) is a failure too — the
			// coordinator re-dispatches the shortfall rather than letting
			// it vanish from the merge.
			short := err == nil && !protoErr && len(delivered) != len(idxs)
			failed := err != nil || protoErr || short
			if !failed {
				if ferr := m.finish(); ferr != nil {
					t.Fatalf("merger finish failed on an accepted stream: %v", ferr)
				}
			}

			// Whatever happened, the emitted bytes must equal the canonical
			// rendering of the delivered prefix: merged header, then each
			// delivered result re-encoded at its global index. Anything
			// else means a broken input leaked divergent bytes downstream.
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			_ = enc.Encode(wire.StreamHeader{Version: wire.V1, ID: "merged", Jobs: len(idxs)})
			for k, res := range delivered {
				res.Index = idxs[k]
				_ = enc.Encode(res)
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				t.Fatalf("merged bytes diverge from the delivered prefix:\ngot:  %q\nwant: %q",
					out.Bytes(), want.Bytes())
			}
			return out.Bytes(), failed
		}

		out1, failed1 := run()
		out2, failed2 := run()
		if failed1 != failed2 || !bytes.Equal(out1, out2) {
			t.Fatalf("decode+merge is not deterministic: (%v, %q) vs (%v, %q)",
				failed1, out1, failed2, out2)
		}
	})
}
