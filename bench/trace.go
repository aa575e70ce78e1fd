package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a request's root).
// Graph, Seed and Work describe Monte-Carlo and sparsifier calls: Work is
// samples × arcs for an estimate, edge visits for a sparsify run, and the
// dirty-vertex count for a repair.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Hit    bool    `json:"hit,omitempty"`
	Graph  string  `json:"graph,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Work   float64 `json:"work,omitempty"`
	Extra  float64 `json:"extra,omitempty"`
	Failed bool    `json:"failed,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(req, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id, letting f annotate it.
func (t *tracer) end(id int, f func(*span)) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	if f != nil {
		f(s)
	}
}

// add records an already-closed span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanIndex answers the tree queries the layer metrics need.
type spanIndex struct {
	spans    []span
	children map[int][]int // parent id → child indices
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// named returns the spans called name that were part of the window (a
// non-negative request id; set-up and warm-up use negative ones).
func (ix *spanIndex) named(name string) []*span {
	var out []*span
	for i := range ix.spans {
		if s := &ix.spans[i]; s.Name == name && s.Req >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of span id's children's intervals,
// clipped to [from, to].
func (ix *spanIndex) covered(id int, from, to int64) int64 {
	return union(ix.spans, ix.children[id], from, to)
}

// union is the length of the union of the intervals of spans[idx...],
// clipped to [from, to].
func union(spans []span, idx []int, from, to int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, ci := range idx {
		c := spans[ci]
		a, b := max(c.Start, from), min(c.End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		if !started || v.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if started {
		total += curB - curA
	}
	return total
}

// self is a span's duration minus the time its children cover.
func (ix *spanIndex) self(s *span) int64 {
	return s.dur() - ix.covered(s.ID, s.Start, s.End)
}

// firstChildStart is the earliest start among a span's children, or the
// span's own start when it has none.
func (ix *spanIndex) firstChildStart(s *span) int64 {
	first := s.End
	for _, ci := range ix.children[s.ID] {
		first = min(first, ix.spans[ci].Start)
	}
	if first == s.End {
		return s.Start
	}
	return first
}

// p50 and p99 of a set of values in the unit scale divides nanoseconds by.
func pctNS(vals []int64, p, scale float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v) / scale
	}
	return percentile(f, p)
}

func durs(ss []*span) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

const (
	perMS = 1e6
	perUS = 1e3
)
