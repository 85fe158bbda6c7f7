package main

import "testing"

// Self time is a span's duration minus the part of its interval its child
// spans cover: children clipped to the parent, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "diagnose", Start: 0, End: 100, Parent: -1},
		{Name: "hop", Start: 10, End: 40, Parent: 0},
		{Name: "hop", Start: 30, End: 60, Parent: 0},    // overlaps the first by 10
		{Name: "hop", Start: 90, End: 130, Parent: 0},   // runs 30 past the parent
		{Name: "decode", Start: 12, End: 20, Parent: 1}, // grandchild: not the root's child
	}
	got := make(map[string]spanAgg)
	for _, a := range selfTimes(spans) {
		got[a.Name] = a
	}
	// Children cover [10,60) and [90,100) of the root: 60 of its 100.
	if a := got["diagnose"]; a.Count != 1 || a.TotalNs != 100 || a.SelfNs != 40 {
		t.Errorf("diagnose = %+v, want count 1 total 100 self 40", a)
	}
	// Hops: 30+30+40 total; the first loses 8 to its decode child.
	if a := got["hop"]; a.Count != 3 || a.TotalNs != 100 || a.SelfNs != 92 {
		t.Errorf("hop = %+v, want count 3 total 100 self 92", a)
	}
	if a := got["decode"]; a.SelfNs != 8 {
		t.Errorf("decode self = %d, want 8", a.SelfNs)
	}
}

func TestLaneNestsSpans(t *testing.T) {
	rec := newRecorder()
	ln := rec.lane("client")
	outer := ln.begin("outer", 7)
	inner := ln.begin("inner", 7)
	ln.end(inner)
	sibling := ln.begin("sibling", 7)
	ln.end(sibling)
	ln.end(outer)
	spans, dropped := rec.all()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("got %d spans, %d dropped", len(spans), dropped)
	}
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 0 {
		t.Errorf("parents = %d %d %d, want -1 0 0", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Op != 7 {
			t.Errorf("span %+v: bad interval or op", s)
		}
	}
	// The untraced run's nil lane must swallow the same calls.
	var none *recorder
	l := none.lane("x")
	l.end(l.begin("y", 0))
}
