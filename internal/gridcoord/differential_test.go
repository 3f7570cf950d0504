package gridcoord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskalloc/internal/wire"
)

// The differential test of the coordinator's promise that a client need
// not know whether it talks to one backend or a fleet: every document
// goes to a fresh backend and to a fresh coordinator over three fresh
// backends, and both must answer with the same status, Content-Type,
// X-Sweep-Id and body bytes — for a sweep that is admitted, the status
// GET of its ID too. X-Cache, X-Request-Id and /v1/healthz differ by
// design and are not compared.

// probe is one document: a POST of body, with query, to /v1/sweeps or
// /v1/bisect.
type probe struct {
	name   string
	bisect bool // POST /v1/bisect, else POST /v1/sweeps
	query  string
	body   func() io.Reader
}

// bytesProbe is a probe of a body held in memory.
func bytesProbe(name string, bisect bool, query string, doc []byte) probe {
	return probe{name, bisect, query, func() io.Reader { return bytes.NewReader(doc) }}
}

// answer is what the contract covers of one response; aborted records
// a transfer that failed after the headers.
type answer struct {
	status          int
	contentType, id string
	body            []byte
	aborted         bool
}

// ask sends one request and reads its answer.
func ask(t testing.TB, method, url string, body io.Reader) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := answer{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), id: resp.Header.Get("X-Sweep-Id")}
	out.body, err = io.ReadAll(resp.Body)
	out.aborted = err != nil
	return out
}

// sameAnswer fails t when the coordinator's answer differs from the
// backend's.
func sameAnswer(t testing.TB, what string, backend, coord answer) {
	t.Helper()
	if backend.status != coord.status || backend.contentType != coord.contentType || backend.id != coord.id ||
		backend.aborted != coord.aborted || !bytes.Equal(backend.body, coord.body) {
		t.Errorf("%s: the backend answered HTTP %d %q X-Sweep-Id %q aborted %v, %d bytes %.300q;\n"+
			"the coordinator answered HTTP %d %q X-Sweep-Id %q aborted %v, %d bytes %.300q",
			what, backend.status, backend.contentType, backend.id, backend.aborted, len(backend.body), backend.body,
			coord.status, coord.contentType, coord.id, coord.aborted, len(coord.body), coord.body)
	}
}

// differential sends p to a fresh backend and to a fresh coordinator
// over three fresh backends and compares the answers, then, for an
// admitted sweep, the answers to the status GET of its ID.
func differential(t *testing.T, p probe) {
	t.Helper()
	backend := bootBackends(t, 1, nil)[0]
	coord, err := New(Options{Backends: bootBackends(t, 3, nil)})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)

	path := "/v1/sweeps"
	if p.bisect {
		path = "/v1/bisect"
	}
	if p.query != "" {
		path += "?" + p.query
	}
	want := ask(t, http.MethodPost, backend+path, p.body())
	sameAnswer(t, "POST "+path, want, ask(t, http.MethodPost, cs.URL+path, p.body()))
	if want.status == http.StatusOK && !p.bisect && want.id != "" {
		status := "/v1/sweeps/" + want.id
		sameAnswer(t, "GET "+status, ask(t, http.MethodGet, backend+status, nil), ask(t, http.MethodGet, cs.URL+status, nil))
	}
}

// parityProbes are the differential test's documents: every
// testdata/wire sweep as NDJSON and as CSV, one small bisect, every
// admission row, and mutations of them — an unknown algorithm, init,
// noise kind or schedule kind at the last job, a nested frozen snapshot
// past the budget, a bad version, an unknown field, a truncated body,
// ?format=xml and ?workers=abc.
func parityProbes(t testing.TB) []probe {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "wire")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no wire corpus under %s: %v", dir, err)
	}
	var out []probe
	add := func(name string, bisect bool, query string, doc []byte) {
		out = append(out, bytesProbe(name, bisect, query, doc))
	}
	marshal := func(v any) []byte {
		doc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	// docMutations adds what every document gets: a bad version, an
	// unknown field, a truncated body and the two bad queries.
	docMutations := func(name string, bisect bool, doc []byte) {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(doc, &fields); err != nil {
			t.Fatal(err)
		}
		fields["version"] = json.RawMessage(`"taskalloc/v0"`)
		add(name+" bad version", bisect, "", marshal(fields))
		fields["version"] = json.RawMessage(`"` + wire.V1 + `"`)
		fields["extra"] = json.RawMessage(`1`)
		add(name+" unknown field", bisect, "", marshal(fields))
		add(name+" truncated", bisect, "", doc[:len(doc)/2])
		add(name+" format xml", bisect, "format=xml", doc)
		add(name+" workers abc", bisect, "workers=abc", doc)
	}
	// typos are the config mutations that only a decode catches.
	typos := []struct {
		name string
		mut  func(*wire.Config)
	}{
		{"algorithm", func(c *wire.Config) { c.Algorithm = "bogus" }},
		{"init", func(c *wire.Config) { c.Init = "bogus" }},
		{"noise", func(c *wire.Config) { c.Noise = &wire.Noise{Kind: "bogus"} }},
		{"schedule", func(c *wire.Config) {
			c.Demands, c.DemandChanges, c.Schedule = nil, nil, &wire.Schedule{Kind: "bogus"}
		}},
		{"nested frozen budget", func(c *wire.Config) {
			c.Demands, c.DemandChanges = nil, nil
			c.Schedule = &wire.Schedule{Kind: "modulate", Scale: []float64{1}, Inner: &wire.Schedule{
				Kind: "frozen", When: []uint64{0}, Vectors: [][]int{{7}}, Horizon: wire.MaxFrozenHorizon + 1}}
		}},
	}

	for _, file := range files {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := "sweep " + strings.TrimSuffix(filepath.Base(file), ".json")
		add(name, false, "", doc)
		add(name+" csv", false, "format=csv", doc)
		docMutations(name, false, doc)
		sweep, err := wire.DecodeSweep(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, typo := range typos {
			bad := wire.Sweep{Version: wire.V1, Jobs: append([]wire.Job(nil), sweep.Jobs...)}
			typo.mut(&bad.Jobs[len(bad.Jobs)-1].Config)
			add(name+" "+typo.name, false, "", marshal(bad))
		}
	}

	bisect := wire.BisectRequest{Version: wire.V1, Job: propJob(9600),
		GammaLo: 0.01, GammaHi: 1.0 / 16, TargetBand: 1e-9, MaxEvals: 4}
	add("bisect", true, "", marshal(bisect))
	docMutations("bisect", true, marshal(bisect))
	for _, typo := range typos {
		bad := bisect
		typo.mut(&bad.Job.Config)
		add("bisect "+typo.name, true, "", marshal(bad))
	}

	for _, row := range admissionRows() {
		path, doc := row.doc(t)
		add(row.name, path == "/v1/bisect", "", doc)
	}
	return out
}

// TestBackendCoordinatorParity: a backend and a coordinator answer
// every parity probe alike, and a body one byte past wire.MaxBodyBytes
// (padded with whitespace after the opening brace and streamed) on
// both routes.
func TestBackendCoordinatorParity(t *testing.T) {
	probes := parityProbes(t)
	for _, over := range []struct {
		name   string
		bisect bool
		doc    string
	}{
		{"sweep over the body cap", false, `{"version":"taskalloc/v1","jobs":[]}`},
		{"bisect over the body cap", true, `{"version":"taskalloc/v1","gamma_lo":0.01,"gamma_hi":0.05,"target_band":1}`},
	} {
		probes = append(probes, probe{over.name, over.bisect, "", func() io.Reader {
			return io.MultiReader(strings.NewReader(over.doc[:1]),
				io.LimitReader(spaces{}, wire.MaxBodyBytes+1-int64(len(over.doc))), strings.NewReader(over.doc[1:]))
		}})
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) { differential(t, p) })
	}
}

// FuzzBackendCoordinatorParity holds the differential contract over
// arbitrary documents, seeded with the parity probes held in memory.
// A document both sides would admit whose simulation costs more than
// 10^7 ant-rounds, each round charged 100 ants more, is skipped, so
// fuzzing never waits on a long run.
func FuzzBackendCoordinatorParity(f *testing.F) {
	for _, p := range parityProbes(f) {
		doc, err := io.ReadAll(p.body())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.bisect, p.query, doc)
	}
	f.Fuzz(func(t *testing.T, bisect bool, query string, doc []byte) {
		q, err := url.ParseQuery(query)
		if err != nil || antRounds(bisect, doc) > 1e7 {
			t.Skip("not a query, or simulates too long for a fuzz input")
		}
		differential(t, bytesProbe("fuzz", bisect, q.Encode(), doc))
	})
}

// antRounds bounds the ant-rounds a document would simulate, each
// round charged 100 ants more for its fixed cost: 0 for a document that
// is not admitted.
func antRounds(bisect bool, doc []byte) float64 {
	jobs, evals := []wire.Job(nil), 1
	if bisect {
		req, err := wire.DecodeBisectRequest(bytes.NewReader(doc))
		if err != nil {
			return 0
		}
		jobs, evals = []wire.Job{req.Job}, req.MaxEvals
		if evals == 0 {
			evals = wire.MaxBisectEvals
		}
	} else {
		sweep, err := wire.DecodeSweep(bytes.NewReader(doc))
		if err != nil || wire.Admit(sweep.Jobs) != nil {
			return 0
		}
		jobs = sweep.Jobs
	}
	var total float64
	for _, j := range jobs {
		ants := j.Config.Ants
		for _, c := range j.Config.SizeChanges {
			ants = max(ants, c.To)
		}
		total += float64(j.Rounds) * float64(ants+100) * float64(evals)
	}
	return total
}
