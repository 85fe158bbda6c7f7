package main

import (
	"sort"
	"sync"
	"time"
)

// The traced run wraps every call the harness makes into a layer in a span.
// Spans are recorded from the harness's own files only (the program's own
// tracer is switched on beside it and aggregated separately), kept in
// memory, and written out when the run ends.

// span is one timed call into a layer. Parent is the id of the span that
// was open on the same lane when this one began (-1 for a root); Op groups
// the spans of one operation (one diagnosis, one feed round).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

// laneCap bounds the spans one lane stores; a dash phase alone issues tens
// of thousands of operations. Beyond it spans are counted, not kept.
const laneCap = 250_000

// recorder hands out lanes. A nil *recorder is the untraced run: every
// method no-ops without reading the clock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// lane is the span log of one goroutine: spans on a lane nest, so the open
// stack gives each span its parent. A nil *lane no-ops.
type lane struct {
	rec     *recorder
	name    string
	spans   []span
	open    []int // indices into spans (-1 for a span past the cap)
	dropped int
}

func (r *recorder) lane(name string) *lane {
	if r == nil {
		return nil
	}
	l := &lane{rec: r, name: name}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// begin opens a span; the returned token closes it.
func (l *lane) begin(name string, op uint64) int {
	if l == nil {
		return 0
	}
	if len(l.spans) >= laneCap {
		l.dropped++
		l.open = append(l.open, -1)
		return len(l.open)
	}
	parent := -1
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i] >= 0 {
			parent = l.open[i]
			break
		}
	}
	l.spans = append(l.spans, span{
		Name: name, Lane: l.name, Parent: parent, Op: op,
		Start: int64(time.Since(l.rec.epoch)),
	})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.open)
}

// end closes the span begin returned tok for, and any left open above it.
func (l *lane) end(tok int) {
	if l == nil || tok <= 0 || tok > len(l.open) {
		return
	}
	now := int64(time.Since(l.rec.epoch))
	for i := len(l.open) - 1; i >= tok-1; i-- {
		if idx := l.open[i]; idx >= 0 {
			l.spans[idx].End = now
		}
	}
	l.open = l.open[:tok-1]
}

// all returns every recorded span with recorder-wide ids and parents, and
// the number dropped past the lane caps. Call once the lanes' goroutines
// have stopped.
func (r *recorder) all() (spans []span, dropped int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lanes {
		base := len(spans)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if s.End < s.Start {
				s.End = s.Start // never closed: the run ended first
			}
			spans = append(spans, s)
		}
		dropped += l.dropped
	}
	for i := range spans {
		spans[i].ID = i
	}
	return spans, dropped
}

// spanAgg is the per-name roll-up of a span set.
type spanAgg struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes rolls spans up by name. A span's self time is its duration
// minus the part of its interval its child spans cover: children are
// clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) []spanAgg {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*spanAgg)
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanAgg{Name: s.Name}
			byName[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.TotalNs += dur
		a.SelfNs += dur - covered(spans, children[i], s.Start, s.End)
	}
	out := make([]spanAgg, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the listed spans cover.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
