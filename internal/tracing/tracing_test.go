package tracing

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Start("x"); got != nil {
		t.Fatalf("nil tracer Start = %v", got)
	}
	if got := tr.StartForced("x", 7); got != nil {
		t.Fatalf("nil tracer StartForced = %v", got)
	}
	tr.MaybeSlow("x", time.Now(), time.Hour, nil)
	if tr.Started() != 0 || tr.Finished() != 0 || tr.SlowNs() != 0 {
		t.Fatal("nil tracer counters nonzero")
	}
	var trace *Trace
	trace.Span("a", SrcClient, time.Now(), time.Millisecond)
	trace.Add(Span{})
	trace.AddSpans([]Span{{}})
	trace.StartSpan("a", SrcClient).End()
	trace.Finish("")
	trace.FinishErr(errors.New("x"))
	if trace.ID() != 0 || trace.Finished() || trace.Spans() != nil {
		t.Fatal("nil trace misbehaves")
	}
	var el *EventLog
	el.Record(EventShed, "x", 1, 0)
	if el.Events() != nil || el.Total(EventShed) != 0 {
		t.Fatal("nil event log misbehaves")
	}
}

func TestStartFinishLifecycle(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowNs: uint64(time.Hour)})
	trace := tr.Start("interval")
	if trace == nil {
		t.Fatal("SampleEvery=1 did not sample")
	}
	if trace.ID() == 0 {
		t.Fatal("zero trace id")
	}
	sp := trace.StartSpan("stage", SrcServer)
	time.Sleep(time.Millisecond)
	sp.End()
	trace.Finish("")
	if !trace.Finished() {
		t.Fatal("not finished")
	}
	if tr.Started() != 1 || tr.Finished() != 1 {
		t.Fatalf("counters started=%d finished=%d", tr.Started(), tr.Finished())
	}
	got := tr.Traces()
	if len(got) != 1 || got[0] != trace {
		t.Fatalf("ring snapshot = %v", got)
	}
	if len(tr.Slow()) != 0 {
		t.Fatal("fast trace landed in slowlog")
	}
	spans := trace.Spans()
	if len(spans) != 1 || spans[0].Name != "stage" || spans[0].Dur == 0 {
		t.Fatalf("spans = %+v", spans)
	}
	if f := tr.Find(trace.ID()); f != trace {
		t.Fatal("Find missed the trace")
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	trace := tr.Start("q")
	trace.Finish("first")
	trace.Finish("second")
	trace.FinishErr(errors.New("third"))
	if tr.Finished() != 1 {
		t.Fatalf("finished = %d, want 1", tr.Finished())
	}
	if trace.Err() != "first" {
		t.Fatalf("err = %q, want first writer to win", trace.Err())
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	n := 0
	for i := 0; i < 100; i++ {
		if trace := tr.Start("q"); trace != nil {
			n++
			trace.Finish("")
		}
	}
	if n != 25 {
		t.Fatalf("sampled %d of 100 with SampleEvery=4", n)
	}
	off := New(Config{SampleEvery: 0})
	if off.Start("q") != nil {
		t.Fatal("SampleEvery=0 sampled")
	}
	if off.StartForced("q", 42) == nil {
		t.Fatal("forced trace refused with sampling off")
	}
}

func TestSlowPath(t *testing.T) {
	tr := New(Config{SampleEvery: 0, SlowNs: uint64(time.Millisecond)})
	// Under threshold: dropped.
	tr.MaybeSlow("fast", time.Now(), 100*time.Microsecond, nil)
	if tr.SlowCount() != 0 || len(tr.Slow()) != 0 {
		t.Fatal("fast query promoted to slowlog")
	}
	// Over threshold: promoted, finished, error captured.
	tr.MaybeSlow("slow", time.Now().Add(-time.Second), time.Second, errors.New("boom"))
	slow := tr.Slow()
	if len(slow) != 1 {
		t.Fatalf("slowlog len = %d", len(slow))
	}
	got := slow[0]
	if !got.Finished() || !got.Slow() || got.Err() != "boom" || got.Name() != "slow" {
		t.Fatalf("slow trace = %+v", got.View())
	}
	if tr.Started() != 1 || tr.Finished() != 1 {
		t.Fatal("slow path skipped lifecycle counters")
	}
	// Sampled traces that finish slow also land in the slowlog.
	tr2 := New(Config{SampleEvery: 1, SlowNs: 1})
	trace := tr2.Start("q")
	time.Sleep(10 * time.Microsecond)
	trace.Finish("")
	if len(tr2.Slow()) != 1 || !trace.Slow() {
		t.Fatal("slow sampled trace missing from slowlog")
	}
}

func TestRingOverwriteBounded(t *testing.T) {
	tr := New(Config{SampleEvery: 1, RingSize: 8, SlowNs: uint64(time.Hour)})
	for i := 0; i < 100; i++ {
		tr.Start("q").Finish("")
	}
	got := tr.Traces()
	if len(got) != 8 {
		t.Fatalf("ring len = %d, want 8", len(got))
	}
	if tr.Finished() != 100 {
		t.Fatalf("finished = %d", tr.Finished())
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := New(Config{SampleEvery: 1, MaxSpans: 4})
	trace := tr.Start("q")
	for i := 0; i < 10; i++ {
		trace.Span("s", SrcServer, time.Now(), time.Microsecond)
	}
	trace.Finish("")
	if got := len(trace.Spans()); got != 4 {
		t.Fatalf("spans kept = %d, want 4", got)
	}
	if tr.SpansDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.SpansDropped())
	}
}

func TestConcurrentSpansAndFinishes(t *testing.T) {
	tr := New(Config{SampleEvery: 1, RingSize: 64, MaxSpans: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				trace := tr.Start("q")
				var inner sync.WaitGroup
				for s := 0; s < 4; s++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						trace.Span("shard", SrcServer, time.Now(), time.Microsecond)
					}()
				}
				inner.Wait()
				trace.Finish("")
				_ = tr.Traces()
			}
		}()
	}
	wg.Wait()
	if tr.Started() != tr.Finished() {
		t.Fatalf("started %d != finished %d", tr.Started(), tr.Finished())
	}
}

func TestIDRoundTrip(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 100; i++ {
		id := tr.NewID()
		if id == 0 {
			t.Fatal("zero id")
		}
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID len = %d", len(s))
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(%q) = %d, %v", s, back, ok)
		}
	}
	if _, ok := ParseID("zz"); ok {
		t.Fatal("parsed junk")
	}
	if _, ok := ParseID(""); ok {
		t.Fatal("parsed empty")
	}
	if v, ok := ParseID("0xff"); !ok || v != 255 {
		t.Fatalf("ParseID(0xff) = %d, %v", v, ok)
	}
}

func TestFormatTree(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	trace := tr.StartForced("interval", 0xabc)
	base := time.Now()
	trace.Add(Span{Name: "client.write", Src: SrcClient, Start: uint64(base.UnixNano()), Dur: uint64(10 * time.Millisecond)})
	trace.Add(Span{Name: "server.execute", Src: SrcServer, Start: uint64(base.Add(time.Millisecond).UnixNano()), Dur: uint64(5 * time.Millisecond)})
	trace.Add(Span{Name: "server.accumulate", Src: SrcServer, Start: uint64(base.Add(2 * time.Millisecond).UnixNano()), Dur: uint64(time.Millisecond)})
	trace.Finish("")
	out := FormatTree(trace)
	for _, want := range []string{"0000000000000abc", "client.write", "server.execute", "server.accumulate", "interval"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTree missing %q in:\n%s", want, out)
		}
	}
	// server.execute nests under client.write, accumulate under execute.
	wIdx := strings.Index(out, "client.write")
	eIdx := strings.Index(out, "server.execute")
	if wIdx > eIdx {
		t.Fatalf("span order wrong:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var wIndent, eIndent, mIndent int
	for _, ln := range lines {
		trimmed := strings.TrimLeft(ln, " ")
		indent := len(ln) - len(trimmed)
		switch {
		case strings.HasPrefix(trimmed, "client.write"):
			wIndent = indent
		case strings.HasPrefix(trimmed, "server.execute"):
			eIndent = indent
		case strings.HasPrefix(trimmed, "server.accumulate"):
			mIndent = indent
		}
	}
	if !(wIndent < eIndent && eIndent < mIndent) {
		t.Fatalf("nesting indents %d/%d/%d:\n%s", wIndent, eIndent, mIndent, out)
	}
	if got := FormatTree(nil); got != "(no trace)\n" {
		t.Fatalf("FormatTree(nil) = %q", got)
	}
}

type testCounter struct{ n int64 }

func (c *testCounter) Inc() { c.n++ }

func TestCounterHooks(t *testing.T) {
	var started, finished, slow testCounter
	tr := New(Config{SampleEvery: 1, SlowNs: 1, Started: &started, Finished: &finished, Slow: &slow})
	trace := tr.Start("q")
	time.Sleep(10 * time.Microsecond)
	trace.Finish("")
	if started.n != 1 || finished.n != 1 || slow.n != 1 {
		t.Fatalf("hooks started=%d finished=%d slow=%d", started.n, finished.n, slow.n)
	}
}

// findOnFinish is a Finished hook that, whenever the tracer's totals say
// every started trace has finished, looks the trace up the way a caller
// waiting for that parity would.
type findOnFinish struct {
	tr     *Tracer
	id     uint64
	ring   bool // Find returned the trace
	slowed bool // the slowlog held it, if it counted as slow
}

func (f *findOnFinish) Inc() {
	if f.tr.Finished() != f.tr.Started() {
		return
	}
	f.ring = f.tr.Find(f.id) != nil
	f.slowed = f.tr.SlowCount() == 0
	for _, s := range f.tr.Slow() {
		f.slowed = f.slowed || s.ID() == f.id
	}
}

// A trace is counted finished only once it can be found, so
// Started() == Finished() followed by Find never misses it.
func TestFinishedCountedAfterRetained(t *testing.T) {
	for _, slowNs := range []uint64{1, uint64(time.Hour)} {
		hook := &findOnFinish{}
		tr := New(Config{SampleEvery: 1, SlowNs: slowNs, Finished: hook})
		hook.tr = tr
		trace := tr.Start("q")
		hook.id = trace.ID()
		time.Sleep(10 * time.Microsecond)
		trace.Finish("")
		if !hook.ring || !hook.slowed {
			t.Fatalf("slowNs=%d: counted finished before retained (found=%v slowlog=%v)", slowNs, hook.ring, hook.slowed)
		}
	}
}

func TestEventLog(t *testing.T) {
	el := NewEventLog(4)
	var shed testCounter
	el.SetCounter(EventShed, &shed)
	el.Record(EventShed, "netserver", 256, 0)
	el.Record(EventBackpressure, "shard=0", 1234, 0)
	el.Record(EventRingHighWater, "shard=1", 900, 0)
	el.Record(EventFreezeStall, "port=2", 777, 0xdead)
	evs := el.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	// Newest first.
	if evs[0].Kind != EventFreezeStall || evs[0].TraceID != FormatID(0xdead) {
		t.Fatalf("newest = %+v", evs[0])
	}
	if evs[3].Kind != EventShed || evs[3].Subject != "netserver" || evs[3].Value != 256 {
		t.Fatalf("oldest = %+v", evs[3])
	}
	if shed.n != 1 || el.Total(EventShed) != 1 {
		t.Fatal("shed counter mismatch")
	}
	// Overwrite keeps the ring bounded.
	for i := 0; i < 10; i++ {
		el.Record(EventShed, "netserver", int64(i), 0)
	}
	if got := len(el.Events()); got != 4 {
		t.Fatalf("ring grew to %d", got)
	}
	if el.Total(EventShed) != 11 {
		t.Fatalf("total = %d", el.Total(EventShed))
	}
	// Kind JSON + names.
	if EventRingHighWater.String() != "ring_high_watermark" || EventKind(200).String() != "unknown" {
		t.Fatal("kind names")
	}
	b, err := EventRingHighWater.MarshalJSON()
	if err != nil || string(b) != `"ring_high_watermark"` {
		t.Fatalf("kind json = %s, %v", b, err)
	}
}

func TestDetachedTrace(t *testing.T) {
	trace := NewDetached("interval", 99, 8)
	trace.StartSpan("server.execute", SrcServer).End()
	trace.Finish("")
	if !trace.Finished() || trace.ID() != 99 || len(trace.Spans()) != 1 {
		t.Fatalf("detached trace = %+v", trace.View())
	}
}
