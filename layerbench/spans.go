package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory for a traced run; they are written
// out once the run ends. A nil *tracer (and the nil *span it hands
// out) records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []*span
}

// span is one timed call at a layer boundary. Spans of one client
// request share its trace ID; Parent links a span to its caller.
type span struct {
	tr     *tracer
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Trace  string            `json:"trace,omitempty"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Self   time.Duration     `json:"self_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root). A child inherits
// its parent's trace ID when trace is empty.
func (t *tracer) start(name string, parent *span, trace string) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, Name: name, Trace: trace, Start: time.Since(t.t0)}
	if parent != nil {
		s.Parent = parent.ID
		if trace == "" {
			s.Trace = parent.Trace
		}
	}
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (s *span) attr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
}

func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.tr.t0)
	s.tr.mu.Lock()
	s.End = d
	s.tr.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans in
// start order.
func (t *tracer) finish() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		s.Self = s.End - s.Start - covered(s, children[s.ID])
	}
	out := append([]*span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfByName totals self time and counts spans per name.
func selfByName(spans []*span) (names []string, self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += s.Self
		count[s.Name]++
	}
	return sortedKeys(self), self, count
}

// writeSpans writes the spans file: the run's identity, its host, and
// every span.
func writeSpans(w io.Writer, head map[string]any, spans []*span) error {
	doc := map[string]any{"spans": spans}
	for k, v := range head {
		doc[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
