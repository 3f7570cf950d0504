package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"taskalloc/internal/obs"
	"taskalloc/internal/simserver"
	"taskalloc/internal/simserver/client"
	"taskalloc/internal/wire"
)

// env is one set-up workload: its servers, the URL its clients talk
// to, and the references its correctness gates compare against.
type env struct {
	w    *workload
	seed uint64
	dir  string

	direct *server // topoDurable: the one backend
	grid   *fleet  // topoGridHetero
	ref    *server // topoGridHetero: a single memory backend, the byte reference
	entry  string

	nextSession int
}

// setup boots the workload's servers and pre-warms them with one
// warm-up session (distinct seeds), so lazy initialization is paid
// before timing.
func setup(ctx context.Context, w *workload, seed uint64, dir string) (*env, error) {
	e := &env{w: w, seed: seed, dir: dir}
	var err error
	switch w.topo {
	case topoDurable:
		// Sync off (the default): fsync latency would measure the
		// shared disk, not the program.
		e.direct, err = startServer(simserver.Options{DataDir: filepath.Join(dir, "data")})
	case topoGridHetero:
		if e.grid, err = startFleet(heteroDelays); err == nil {
			e.ref, err = startServer(simserver.Options{})
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	if e.direct != nil {
		e.entry = e.direct.url
	} else {
		e.entry = e.grid.coord.url
	}
	var rec loopRecord
	d := newDriver(e.entry)
	e.runSession(ctx, d, w.session(seed, warmupIndex), nil, &rec)
	d.close()
	if rec.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up session failed: %v", rec.failures)
	}
	return e, nil
}

func (e *env) close() {
	if e.direct != nil {
		e.direct.close()
	}
	if e.grid != nil {
		e.grid.close()
	}
	if e.ref != nil {
		e.ref.close()
	}
}

// driver is one closed-loop client: its own connection pool (one
// connection, since it sends one request at a time) and a transport that
// digests and counts every response body as it streams past.
type driver struct {
	cl *client.Client
	hc *http.Client
	tr *captureTransport
}

func newDriver(base string) *driver {
	tr := &captureTransport{base: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	hc := &http.Client{Transport: tr}
	return &driver{cl: client.New(base, hc), hc: hc, tr: tr}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// captureTransport wraps each response body in a digesting reader. A
// driver sends one request at a time from one goroutine, so last is the
// body of the request that just returned.
type captureTransport struct {
	base *http.Transport
	last *digestBody
}

func (t *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b := &digestBody{rc: resp.Body, h: sha256.New()}
	resp.Body, t.last = b, b
	return resp, nil
}

func (t *captureTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type digestBody struct {
	rc io.ReadCloser
	h  hash.Hash
	n  int64
}

func (b *digestBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.h.Write(p[:n])
	b.n += int64(n)
	return n, err
}

func (b *digestBody) Close() error { return b.rc.Close() }

// outcome is one request's measurement and what its checks compare.
type outcome struct {
	rec     reqRecord
	err     error
	digest  string        // sweep: SHA-256 of the body; bisect: of the provenance-blind path
	results []wire.Result // sweep cells, in job order
}

// reqRecord is one request's timing and the work it delivered.
type reqRecord struct {
	kind      reqKind
	lat       time.Duration
	done      time.Time     // when the response completed
	first     time.Duration // sweeps: time to the first result line
	cells     int           // sweep cells, or bisect evaluations
	antRounds float64
	bytes     int64 // sweep response body bytes
	evals     int
	hits      int
}

// do sends one request and measures it. With a tracer, the request gets
// a root span and its trace ID travels as X-Trace-Id.
func (d *driver) do(ctx context.Context, q request, tr *tracer) outcome {
	cl := d.cl
	var sp *span
	if tr != nil {
		id := obs.NewID()
		cl = cl.WithTraceID(id)
		sp = tr.start("request", nil, id)
		sp.attr("role", q.role)
	}
	o := outcome{rec: reqRecord{kind: q.kind}}
	t0 := time.Now()
	switch q.kind {
	case kindSweep:
		sp.attr("kind", "sweep")
		var first time.Duration
		sub, err := cl.SubmitSweep(ctx, q.sweep, client.SubmitOptions{}, func(wire.Result) {
			if first == 0 {
				first = time.Since(t0)
			}
		})
		o.rec.lat, o.rec.first = time.Since(t0), first
		if err != nil {
			o.err = err
			break
		}
		o.results = sub.Results
		o.rec.cells = len(sub.Results)
		o.rec.antRounds = sweepAntRounds(q.sweep)
		if b := d.tr.last; b != nil {
			o.digest, o.rec.bytes = hex.EncodeToString(b.h.Sum(nil)), b.n
		}
		if len(sub.Results) != len(q.sweep.Jobs) {
			o.err = fmt.Errorf("%d results for %d jobs", len(sub.Results), len(q.sweep.Jobs))
		}
		for _, r := range sub.Results {
			if r.Err != "" && o.err == nil {
				o.err = fmt.Errorf("cell %d: %s", r.Index, r.Err)
			}
		}
	case kindBisect:
		sp.attr("kind", "bisect")
		resp, err := cl.Bisect(ctx, q.bisect)
		o.rec.lat = time.Since(t0)
		if err != nil {
			o.err = err
			break
		}
		o.rec.evals, o.rec.hits, o.rec.cells = resp.Evals, resp.CacheHits, resp.Evals
		o.rec.antRounds = antRounds(q.bisect.Job) * float64(resp.Evals)
		o.digest, o.err = bisectPath(*resp)
	}
	o.rec.done = t0.Add(o.rec.lat)
	sp.end()
	return o
}

// sessionRecord is one session's wall time and when it ended.
type sessionRecord struct {
	lat  time.Duration
	done time.Time
}

// loopRecord accumulates one timed loop.
type loopRecord struct {
	reqs     []reqRecord
	sessions []sessionRecord
	reopens  []time.Duration // durable restarts: simserver.Open time
	start    time.Time
	elapsed  time.Duration
	pending  []pendingCheck
	failed   int
	failures []string
}

func (r *loopRecord) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runSession plays one session in order, checking each response against
// the gates its request names.
func (e *env) runSession(ctx context.Context, d *driver, s session, tr *tracer, rec *loopRecord) {
	got := map[string]outcome{}
	start := time.Now()
	for _, q := range s.reqs {
		if q.kind == kindRestart {
			sp := tr.start("restart", nil, "")
			open, err := e.direct.restart(ctx)
			sp.end()
			if err != nil {
				rec.fail("%s: %v", q.role, err)
				continue
			}
			rec.reopens = append(rec.reopens, open)
			continue
		}
		o := d.do(ctx, q, tr)
		rec.reqs = append(rec.reqs, o.rec)
		if o.err == nil {
			o.err = e.checkInline(q, o, got)
		}
		if o.err != nil {
			rec.fail("%s %s: %v", e.w.name, q.role, o.err)
			continue
		}
		got[q.role] = o
		if q.sample {
			rec.pending = append(rec.pending, pendingCheck{req: q, out: o})
		}
	}
	now := time.Now()
	rec.sessions = append(rec.sessions, sessionRecord{lat: now.Sub(start), done: now})
}

// loop runs the workload closed-loop for dur from one client: it plays
// sessions back to back (at least one), starting a new one only before
// the deadline. Session indices continue across loops, so a fresh
// workload never repeats a document.
func (e *env) loop(ctx context.Context, dur time.Duration, tr *tracer) *loopRecord {
	d := newDriver(e.entry)
	defer d.close()
	rec := &loopRecord{start: time.Now()}
	deadline := rec.start.Add(dur)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		e.runSession(ctx, d, e.w.session(e.seed, e.nextSession), tr, rec)
		e.nextSession++
	}
	rec.elapsed = time.Since(rec.start)
	return rec
}
