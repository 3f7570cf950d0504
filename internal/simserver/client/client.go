// Package client is the typed Go client of the simulation service
// (internal/simserver): it submits wire-format job grids, consumes the
// NDJSON result stream, and fetches completed summaries. The e2e tests
// and the CI smoke drive the service exclusively through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"taskalloc/internal/wire"
)

// Client talks to one simulation service instance.
type Client struct {
	base    string
	hc      *http.Client
	token   string
	traceID string
}

// New builds a client for the service at base (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for
// http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// WithToken returns a copy of the client that authenticates every
// request with the tenant bearer token. An empty token clears it.
func (c *Client) WithToken(token string) *Client {
	out := *c
	out.token = token
	return &out
}

// WithTraceID returns a copy of the client that stamps every request
// with the X-Trace-Id header — the correlation ID the grid coordinator
// mints per sweep so one distributed run can be followed through every
// backend's request log. An empty id clears it.
func (c *Client) WithTraceID(id string) *Client {
	out := *c
	out.traceID = id
	return &out
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Workers overrides the server's per-sweep fan-out bound (0 = server
	// default). Never changes the response bytes.
	Workers int
	// DiscardResults skips buffering the result set on the returned
	// Submission: onResult observes each cell and Submission.Results
	// stays nil. For streaming consumers (the grid coordinator) whose
	// sweeps can carry multi-MB trajectory lines, this keeps client
	// memory bounded by one line instead of the whole response.
	DiscardResults bool
	// OnStart, if non-nil, is called once the server accepts the
	// request (HTTP 200), with Cached and Disposition set and before
	// any line of the stream is read. The service sends its headers
	// when it takes the request, so a caller learns whether the server
	// is computing (miss) or replaying while the first cell is still
	// running. Called on the submitting goroutine.
	OnStart func(*Submission)
}

// Submission reports how a submission was served.
type Submission struct {
	// Header is the stream's leading line (sweep ID, grid size).
	Header wire.StreamHeader
	// Cached is Disposition folded to two values: false when the server
	// ran the sweep (miss), else true.
	Cached bool
	// Disposition is the server's X-Cache verdict: "miss" (this request
	// ran the sweep), "hit" (replayed from the result cache — including
	// via a behaviorally equivalent spelling of the sweep), "coalesced"
	// (joined an identical in-flight execution), or "resume" (adopted an
	// incomplete journal and runs the rest of the sweep; Cached is
	// true). Empty when the server predates the header.
	Disposition string
	// Results are the per-cell outcomes in job order.
	Results []wire.Result
}

// readLine reads one newline-terminated line of any length, without
// the trailing newline. io.EOF may accompany a final unterminated line.
func readLine(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		return line, err
	}
}

// APIError is a non-2xx response from the service: the HTTP status
// plus the server's (truncated) message body. Callers that retry —
// e.g. the grid coordinator — use StatusCode to tell transport
// failures (retryable, not an APIError at all) from request rejections
// (4xx: a retry elsewhere would be rejected identically).
type APIError struct {
	// StatusCode is the HTTP status of the rejection.
	StatusCode int
	// Status is the HTTP status line (e.g. "400 Bad Request").
	Status string
	// Message is the server's error body, truncated to 4 KiB.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s: %s", e.Status, e.Message)
}

// AuthError is a 401 rejection: the request carried no bearer token,
// or one the server does not know. It unwraps to its *APIError, so
// errors.As-on-APIError call sites keep working.
type AuthError struct{ *APIError }

// Unwrap exposes the underlying APIError.
func (e *AuthError) Unwrap() error { return e.APIError }

// QuotaError is a 403 rejection: the submission would exceed the
// tenant's cumulative job quota.
type QuotaError struct{ *APIError }

// Unwrap exposes the underlying APIError.
func (e *QuotaError) Unwrap() error { return e.APIError }

// RateLimitError is a 429 rejection from the tenant's token bucket.
// Unlike other 4xx rejections it is transient: retry after RetryAfter.
type RateLimitError struct {
	*APIError
	// RetryAfter is how long until the bucket readmits the tenant.
	RetryAfter time.Duration
}

// Unwrap exposes the underlying APIError.
func (e *RateLimitError) Unwrap() error { return e.APIError }

// apiError decorates non-2xx responses with the server's message. A
// tenant rejection (wire.ErrorBody) becomes its typed error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	base := &APIError{
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		Message:    string(bytes.TrimSpace(body)),
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Kind != "" {
		base.Message = eb.Error
		switch eb.Kind {
		case "unauthorized":
			return &AuthError{base}
		case "quota":
			return &QuotaError{base}
		case "rate_limited":
			return &RateLimitError{
				APIError:   base,
				RetryAfter: time.Duration(eb.RetryAfterMS) * time.Millisecond,
			}
		}
	}
	return base
}

func (c *Client) sweepsURL(format string, opts SubmitOptions) string {
	q := url.Values{}
	if format != "" {
		q.Set("format", format)
	}
	if opts.Workers > 0 {
		q.Set("workers", strconv.Itoa(opts.Workers))
	}
	u := c.base + "/v1/sweeps"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// do sends one request, with the client's auth and trace propagation
// applied and a non-nil body as a JSON document, and returns the
// response, whose body the caller closes, when its status is 200 or one
// of also; any other status is the server's rejection.
func (c *Client) do(ctx context.Context, method, target string, body []byte, also ...int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if c.traceID != "" {
		req.Header.Set("X-Trace-Id", c.traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && !slices.Contains(also, resp.StatusCode) {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// SubmitSweep POSTs the grid and consumes the NDJSON stream. onResult,
// if non-nil, observes each cell as its line arrives (in job order);
// the full result set is returned either way.
func (c *Client) SubmitSweep(ctx context.Context, sweep wire.Sweep, opts SubmitOptions,
	onResult func(wire.Result)) (*Submission, error) {
	body, err := wire.MarshalSweep(sweep)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, c.sweepsURL("ndjson", opts), body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return consumeNDJSON(resp, 0, opts, onResult)
}

// consumeNDJSON reads a sweep stream from an HTTP response into a
// Submission carrying the response's cache headers, announced through
// opts.OnStart before the body is read.
func consumeNDJSON(resp *http.Response, cursor int, opts SubmitOptions, onResult func(wire.Result)) (*Submission, error) {
	d := resp.Header.Get("X-Cache")
	sub := &Submission{Cached: d != "miss", Disposition: d}
	if opts.OnStart != nil {
		opts.OnStart(sub)
	}
	if err := decodeStream(sub, resp.Body, cursor, opts.DiscardResults, onResult); err != nil {
		return nil, err
	}
	return sub, nil
}

// DecodeStream decodes a sweep NDJSON stream from r: the header line,
// then one wire.Result line per cell, each handed to onResult (when
// non-nil) as it is decoded. The stream is truncated unless exactly
// Header.Jobs - cursor result lines arrive (a cursored stream carries
// only the cells from the cursor on); any malformed, truncated, or
// trailing-garbage input returns an error. The returned Submission
// carries no cache headers — HTTP callers use SubmitSweep/ResumeSweep,
// which decorate it; DecodeStream itself exists so non-HTTP consumers
// (fuzzers, replay tools) can drive the exact decode path the client
// uses.
func DecodeStream(r io.Reader, cursor int, discard bool, onResult func(wire.Result)) (*Submission, error) {
	sub := &Submission{}
	if err := decodeStream(sub, r, cursor, discard, onResult); err != nil {
		return nil, err
	}
	return sub, nil
}

// decodeStream is DecodeStream into sub.
func decodeStream(sub *Submission, r io.Reader, cursor int, discard bool, onResult func(wire.Result)) error {
	// Lines are read through a growing reader, not a capped scanner:
	// an inline trajectory for a multi-million-round job is one NDJSON
	// line of arbitrary (memory-bounded) length.
	lines := bufio.NewReaderSize(r, 64*1024)
	header, err := readLine(lines)
	if err != nil {
		return fmt.Errorf("client: read stream header: %w", err)
	}
	if err := json.Unmarshal(header, &sub.Header); err != nil {
		return fmt.Errorf("client: decode stream header: %w", err)
	}
	lineCount := 0
	for {
		line, err := readLine(lines)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("client: read stream: %w", err)
		}
		var res wire.Result
		if jsonErr := json.Unmarshal(line, &res); jsonErr != nil {
			return fmt.Errorf("client: decode result line %d: %w", lineCount, jsonErr)
		}
		lineCount++
		if !discard {
			sub.Results = append(sub.Results, res)
		}
		if onResult != nil {
			onResult(res)
		}
		if err == io.EOF {
			break
		}
	}
	if want := sub.Header.Jobs - cursor; lineCount != want {
		return fmt.Errorf("client: stream truncated: %d of %d results",
			lineCount, want)
	}
	return nil
}

// ResumeSweep reconnects to a sweep's result stream at cursor
// (GET /v1/sweeps/{id}?cursor=N): the response carries cells N on,
// byte-identical to the tail of the uninterrupted POST response, so a
// client that read N result lines before losing its connection — even
// to a server restart, when the sweep was journaled under -data-dir —
// stitches the two bodies into the full response. The returned
// Submission holds only the resumed cells.
func (c *Client) ResumeSweep(ctx context.Context, id string, cursor int, opts SubmitOptions,
	onResult func(wire.Result)) (*Submission, error) {
	if cursor < 0 {
		return nil, fmt.Errorf("client: negative cursor %d", cursor)
	}
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/sweeps/"+url.PathEscape(id)+"?cursor="+strconv.Itoa(cursor), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return consumeNDJSON(resp, cursor, opts, onResult)
}

// SubmitSweepCSV POSTs the grid with format=csv and returns the raw
// response body — the bytes cmd/sweep would print for the same grid.
func (c *Client) SubmitSweepCSV(ctx context.Context, sweep wire.Sweep, opts SubmitOptions) ([]byte, bool, error) {
	body, err := wire.MarshalSweep(sweep)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.do(ctx, http.MethodPost, c.sweepsURL("csv", opts), body)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.Header.Get("X-Cache") != "miss", err
}

// Bisect POSTs an adaptive γ-bisection request (POST /v1/bisect) and
// returns the server's response: the evaluated γ cells, the final
// interval partition, and the cache-hit accounting.
func (c *Client) Bisect(ctx context.Context, req wire.BisectRequest) (*wire.BisectResponse, error) {
	if req.Version == "" {
		req.Version = wire.V1
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, c.base+"/v1/bisect", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out wire.BisectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode bisect response: %w", err)
	}
	return &out, nil
}

// GetSweep fetches a sweep's status/summary by ID (a running sweep's
// status is a 202).
func (c *Client) GetSweep(ctx context.Context, id string) (*wire.SweepStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/sweeps/"+url.PathEscape(id), nil, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var status wire.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return nil, fmt.Errorf("client: decode sweep status: %w", err)
	}
	return &status, nil
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Version fetches the server's wire-format and runtime versions.
func (c *Client) Version(ctx context.Context) (map[string]string, error) {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/version", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]string{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
