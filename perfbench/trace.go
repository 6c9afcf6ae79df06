package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The traced run's span writer. Spans are recorded by the benchmark
// around its calls into each layer's public functions, kept in memory,
// and written once at the end in Chrome trace_event form (loadable in
// Perfetto or chrome://tracing). Per-layer times are self times: a
// span's duration minus the part of it its child spans cover.

// span is one recorded interval. Parent 0 means a root span; Req is the
// index of the request or cell the span served (-1 for none).
type span struct {
	ID     int
	Parent int
	Name   string
	Req    int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; pass the ID to end.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f under a span and returns the span's duration.
func (t *tracer) timed(name string, parent, req int, f func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns each finished span's self time, keyed by span ID:
// its duration minus the union of its children's intervals, clipped to
// the span. Overlapping children (concurrent work under one parent) are
// counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// mark returns a position in the span log for selfSince.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfSince sums self time per span name over the spans begun since mark.
func (t *tracer) selfSince(mark int) map[string]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[mark:]...)
	t.mu.Unlock()
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if d, ok := self[s.ID]; ok {
			out[s.Name] += d
		}
	}
	return out
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every finished span as a Chrome "X" (complete)
// event, timestamps in microseconds, with the span's ID, parent and
// request index in args.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req}})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
