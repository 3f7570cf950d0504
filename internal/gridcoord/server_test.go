package gridcoord

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taskalloc/internal/simserver"
	"taskalloc/internal/wire"
)

// spaces is an endless reader of JSON whitespace: the padding the body
// probes stream instead of allocating.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBodyCapMatchesBackend: the coordinator's HTTP surface caps a
// request document where a default backend does, and answers it as the
// backend does — a sweep one byte past wire.MaxBodyBytes is a 413, and
// a 9 MiB bisect request is decoded, so it gets the backend's own
// validation error. Each probe pads its document with whitespace after
// the opening brace and streams it.
func TestBodyCapMatchesBackend(t *testing.T) {
	backend := simserver.New(simserver.Options{})
	t.Cleanup(backend.Close)
	bs := httptest.NewServer(backend)
	t.Cleanup(bs.Close)
	coord, err := New(Options{Backends: []string{bs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	for _, p := range []struct {
		path, doc string
		size      int64 // whole body, in bytes
		want      int   // the backend's status
	}{
		{"/v1/sweeps", `{"version":"taskalloc/v1","jobs":[]}`, wire.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/bisect", `{"version":"taskalloc/v1","gamma_lo":0,"gamma_hi":0.05,"target_band":1}`, 9 << 20, http.StatusBadRequest},
	} {
		post := func(base string) (int, string) {
			t.Helper()
			body := io.MultiReader(strings.NewReader(p.doc[:1]),
				io.LimitReader(spaces{}, p.size-int64(len(p.doc))),
				strings.NewReader(p.doc[1:]))
			resp, err := http.Post(base+p.path, "application/json", body)
			if err != nil {
				t.Fatalf("POST %s (%d bytes): %v", p.path, p.size, err)
			}
			defer resp.Body.Close()
			msg, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(msg)
		}
		code, msg := post(bs.URL)
		if code != p.want {
			t.Fatalf("backend POST %s (%d bytes): HTTP %d %q, want %d", p.path, p.size, code, msg, p.want)
		}
		if gotCode, gotMsg := post(cs.URL); gotCode != code || gotMsg != msg {
			t.Errorf("coordinator POST %s (%d bytes): HTTP %d %q; the backend answered HTTP %d %q",
				p.path, p.size, gotCode, gotMsg, code, msg)
		}
	}
}
