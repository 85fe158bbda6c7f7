// Package tracing is a zero-dependency, bounded-overhead span recorder
// for the PrintQueue query plane.
//
// Design constraints (mirroring the paper's "measurement must not perturb
// the measured system" rule):
//
//   - A nil *Tracer and a nil *Trace are valid receivers for every method;
//     disabled tracing is a pointer test on the hot path and allocates
//     nothing.
//   - Sampling is counter-based (1-in-N). Unsampled queries can still be
//     promoted post-hoc into the slow ring via MaybeSlow, so the slow-query
//     path is always on even at low sample rates.
//   - Completed traces land in a fixed-size lock-free ring of atomic
//     pointers; readers (debug endpoints) never block writers.
//   - Spans are appended with an atomic reservation index so concurrent
//     stages (shard fan-out workers) can record into one trace; overflow
//     beyond MaxSpans is counted, never grown.
//
// Trace ids are 64-bit and non-zero; id 0 on the wire means "untraced".
// A server joins a client's trace by creating a trace with the same
// forced id, so the two halves can be merged by id.
package tracing

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is the minimal metrics hook; *telemetry.Counter satisfies it.
// Keeping an interface here keeps the package dependency-free.
type Counter interface{ Inc() }

// Span sources: which side of the wire recorded the span.
const (
	SrcClient = "client"
	SrcServer = "server"
)

// Span is one named, timed stage of a trace. Start is wall-clock
// nanoseconds (UnixNano) so client and server spans order on a shared
// axis; Dur comes from the monotonic clock.
type Span struct {
	Name  string `json:"name"`
	Src   string `json:"src,omitempty"`
	Start uint64 `json:"start"`
	Dur   uint64 `json:"dur"`
}

// Defaults applied by New for zero Config fields.
const (
	DefaultRingSize     = 256
	DefaultSlowRingSize = 64
	DefaultMaxSpans     = 64
	DefaultSlowNs       = uint64(10 * time.Millisecond)
)

// Config configures a Tracer. The zero value samples nothing but keeps
// the always-on slow path (and forced ids) live.
type Config struct {
	// SampleEvery samples 1-in-N traces at Start. 0 disables proactive
	// sampling; 1 samples everything. Forced ids (StartForced) and the
	// slow path ignore it.
	SampleEvery int
	// SlowNs is the always-on slow-query threshold in nanoseconds.
	// 0 means DefaultSlowNs.
	SlowNs uint64
	// RingSize / SlowRingSize bound the completed-trace and slow-trace
	// rings. MaxSpans bounds spans per trace.
	RingSize     int
	SlowRingSize int
	MaxSpans     int
	// Optional metric hooks; nil hooks are skipped.
	Started      Counter
	Finished     Counter
	Slow         Counter
	SpansDropped Counter
}

// Tracer hands out traces and retains completed ones.
type Tracer struct {
	cfg  Config
	seed uint64
	seq  atomic.Uint64
	tick atomic.Uint64

	ring *ring
	slow *ring

	started  atomic.Int64
	finished atomic.Int64
	slowN    atomic.Int64
	dropped  atomic.Int64
}

// New builds a Tracer, applying defaults to zero Config fields.
func New(cfg Config) *Tracer {
	if cfg.SlowNs == 0 {
		cfg.SlowNs = DefaultSlowNs
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.SlowRingSize <= 0 {
		cfg.SlowRingSize = DefaultSlowRingSize
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{
		cfg:  cfg,
		seed: uint64(time.Now().UnixNano()) | 1,
		ring: newRing(cfg.RingSize),
		slow: newRing(cfg.SlowRingSize),
	}
}

// splitmix64 mixes the sequence counter into a well-spread non-zero id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID returns a fresh non-zero trace id.
func (t *Tracer) NewID() uint64 {
	id := splitmix64(t.seed + t.seq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// SlowNs reports the slow-query threshold. nil-safe (returns 0).
func (t *Tracer) SlowNs() uint64 {
	if t == nil {
		return 0
	}
	return t.cfg.SlowNs
}

// sampled rolls the 1-in-N sampler.
func (t *Tracer) sampled() bool {
	n := t.cfg.SampleEvery
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return t.tick.Add(1)%uint64(n) == 0
}

// Start begins a sampled trace, or returns nil if the sampler says no
// (or the tracer is nil). A nil *Trace is safe to use everywhere.
func (t *Tracer) Start(name string) *Trace {
	if t == nil || !t.sampled() {
		return nil
	}
	return t.startTrace(name, t.NewID())
}

// StartForced begins a trace regardless of sampling, joining the given
// id (a remote caller's trace id). id 0 generates a fresh one.
// nil-safe (returns nil).
func (t *Tracer) StartForced(name string, id uint64) *Trace {
	if t == nil {
		return nil
	}
	if id == 0 {
		id = t.NewID()
	}
	return t.startTrace(name, id)
}

func (t *Tracer) startTrace(name string, id uint64) *Trace {
	if t.cfg.Started != nil {
		t.cfg.Started.Inc()
	}
	t.started.Add(1)
	tr := NewDetached(name, id, t.cfg.MaxSpans)
	tr.tr = t
	return tr
}

// NewDetached builds a trace not attached to any tracer: it records
// spans and can be finished, but lands in no ring. Servers use this to
// honor a client's trace id even when local tracing is disabled.
func NewDetached(name string, id uint64, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	t0 := time.Now()
	return &Trace{
		id:      id,
		name:    name,
		t0:      t0,
		startNs: uint64(t0.UnixNano()),
		spans:   make([]Span, maxSpans),
	}
}

// MaybeSlow is the always-on slow path for queries the sampler skipped:
// if dur crosses the threshold, a span-less trace is recorded into the
// slow ring. nil-safe.
func (t *Tracer) MaybeSlow(name string, start time.Time, dur time.Duration, err error) {
	if t == nil || dur < 0 || uint64(dur) < t.cfg.SlowNs {
		return
	}
	tr := NewDetached(name, t.NewID(), 1)
	tr.t0 = start
	tr.startNs = uint64(start.UnixNano())
	tr.tr = t
	if t.cfg.Started != nil {
		t.cfg.Started.Inc()
	}
	t.started.Add(1)
	tr.finishDur(dur, errString(err))
}

// finish retains a completed trace. It is counted only once both rings
// hold it, so a caller that sees Started() == Finished() can Find it.
func (t *Tracer) finish(tr *Trace) {
	tr.slow = tr.durNs >= t.cfg.SlowNs
	t.ring.put(tr)
	if tr.slow {
		t.slow.put(tr)
		t.slowN.Add(1)
		if t.cfg.Slow != nil {
			t.cfg.Slow.Inc()
		}
	}
	t.finished.Add(1)
	if t.cfg.Finished != nil {
		t.cfg.Finished.Inc()
	}
}

// Traces returns completed traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Slow returns the slowlog (traces over the threshold), newest first.
func (t *Tracer) Slow() []*Trace {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// Find looks an id up in the completed and slow rings.
func (t *Tracer) Find(id uint64) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.ring.snapshot() {
		if tr.id == id {
			return tr
		}
	}
	for _, tr := range t.slow.snapshot() {
		if tr.id == id {
			return tr
		}
	}
	return nil
}

// Started / Finished / SlowCount / SpansDropped expose lifetime totals
// (used by chaos tests to prove orphan closure). nil-safe.
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

func (t *Tracer) Finished() int64 {
	if t == nil {
		return 0
	}
	return t.finished.Load()
}

func (t *Tracer) SlowCount() int64 {
	if t == nil {
		return 0
	}
	return t.slowN.Load()
}

func (t *Tracer) SpansDropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// ring is a fixed-size lock-free MPMC ring of completed traces. put
// claims a slot with an atomic counter and stores a pointer; snapshot
// loads pointers. Overwrites drop the oldest entry, by design.
type ring struct {
	slots []atomic.Pointer[Trace]
	pos   atomic.Uint64
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], n)}
}

func (r *ring) put(t *Trace) {
	i := (r.pos.Add(1) - 1) % uint64(len(r.slots))
	r.slots[i].Store(t)
}

// snapshot returns entries newest-first.
func (r *ring) snapshot() []*Trace {
	n := len(r.slots)
	out := make([]*Trace, 0, n)
	pos := r.pos.Load()
	for k := 0; k < n; k++ {
		i := (pos + uint64(n) - 1 - uint64(k)) % uint64(n)
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Trace is one query's tree of spans. All methods are nil-safe.
type Trace struct {
	id      uint64
	name    string
	t0      time.Time
	startNs uint64

	n     atomic.Int32
	spans []Span

	// set at Finish; published via the ring (or the finished flag).
	durNs    uint64
	errStr   string
	slow     bool
	dropped  int32
	finished atomic.Bool

	tr *Tracer
}

// ID returns the trace id, 0 for a nil trace (untraced on the wire).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Name returns the root operation name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// StartNs returns the wall-clock start in UnixNano.
func (t *Trace) StartNs() uint64 {
	if t == nil {
		return 0
	}
	return t.startNs
}

// DurNs returns the finished duration (0 before Finish).
func (t *Trace) DurNs() uint64 {
	if t == nil || !t.finished.Load() {
		return 0
	}
	return t.durNs
}

// Err returns the error annotation set at Finish.
func (t *Trace) Err() string {
	if t == nil || !t.finished.Load() {
		return ""
	}
	return t.errStr
}

// Slow reports whether the trace crossed the slow threshold.
func (t *Trace) Slow() bool {
	if t == nil || !t.finished.Load() {
		return false
	}
	return t.slow
}

// Finished reports whether Finish ran.
func (t *Trace) Finished() bool {
	if t == nil {
		return false
	}
	return t.finished.Load()
}

// Span records a completed stage. Concurrent callers are safe: slots
// are claimed with an atomic index. Past MaxSpans the span is dropped
// and counted.
func (t *Trace) Span(name, src string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.add(Span{Name: name, Src: src, Start: uint64(start.UnixNano()), Dur: uint64(dur)})
}

// Add records a pre-built span (e.g. decoded from a reply frame).
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.add(sp)
}

// AddSpans bulk-records remote spans.
func (t *Trace) AddSpans(sps []Span) {
	if t == nil {
		return
	}
	for _, sp := range sps {
		t.add(sp)
	}
}

func (t *Trace) add(sp Span) {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		atomic.AddInt32(&t.dropped, 1)
		if t.tr != nil {
			t.tr.dropped.Add(1)
			if t.tr.cfg.SpansDropped != nil {
				t.tr.cfg.SpansDropped.Inc()
			}
		}
		return
	}
	t.spans[i] = sp
}

// Spans snapshots the recorded spans. Callers must ensure recording
// goroutines have synchronized (the query plane does: shard workers
// join before the reply is encoded).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := make([]Span, n)
	copy(out, t.spans[:n])
	return out
}

// SpanHandle times one stage; obtain with StartSpan, close with End.
// The zero value (from a nil trace) is a no-op.
type SpanHandle struct {
	tr   *Trace
	name string
	src  string
	t0   time.Time
}

// StartSpan opens a stage timer on the trace. nil-safe: a nil trace
// returns a no-op handle without reading the clock.
func (t *Trace) StartSpan(name, src string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{tr: t, name: name, src: src, t0: time.Now()}
}

// End records the stage. Safe on the zero handle.
func (h SpanHandle) End() {
	if h.tr == nil {
		return
	}
	h.tr.Span(h.name, h.src, h.t0, time.Since(h.t0))
}

// Finish closes the trace, computing the duration and retaining it in
// the tracer's ring(s). Exactly one Finish wins; later calls no-op, so
// orphan-closure paths (writer drain, poison, timeouts) can all call it
// defensively. nil-safe.
func (t *Trace) Finish(errStr string) {
	if t == nil {
		return
	}
	t.finishDur(time.Since(t.t0), errStr)
}

// FinishErr is Finish with an error value (nil → "").
func (t *Trace) FinishErr(err error) {
	if t == nil {
		return
	}
	t.finishDur(time.Since(t.t0), errString(err))
}

func (t *Trace) finishDur(dur time.Duration, errStr string) {
	if dur < 0 {
		dur = 0
	}
	if !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.durNs = uint64(dur)
	t.errStr = errStr
	if t.tr != nil {
		t.tr.finish(t)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// View is the JSON shape served by /debug/traces and friends.
type View struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	StartNs      uint64 `json:"start_ns"`
	DurNs        uint64 `json:"dur_ns"`
	Err          string `json:"err,omitempty"`
	Slow         bool   `json:"slow,omitempty"`
	Finished     bool   `json:"finished"`
	Spans        []Span `json:"spans"`
	SpansDropped int32  `json:"spans_dropped,omitempty"`
}

// View renders the trace for JSON serving. nil-safe (zero View).
func (t *Trace) View() View {
	if t == nil {
		return View{}
	}
	v := View{
		ID:           FormatID(t.id),
		Name:         t.name,
		StartNs:      t.startNs,
		DurNs:        t.DurNs(),
		Err:          t.Err(),
		Slow:         t.Slow(),
		Finished:     t.finished.Load(),
		Spans:        t.Spans(),
		SpansDropped: atomic.LoadInt32(&t.dropped),
	}
	sort.SliceStable(v.Spans, func(i, j int) bool { return v.Spans[i].Start < v.Spans[j].Start })
	return v
}

// FormatID renders a trace id the way debug endpoints and exemplars
// expect it: 16 hex digits.
func FormatID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseID parses FormatID output (with or without a 0x prefix).
func ParseID(s string) (uint64, bool) {
	s = strings.TrimPrefix(s, "0x")
	if s == "" || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// FormatTree renders a finished trace as an indented span tree: spans
// sorted by start time, nested by time containment. Used by
// `pqquery -trace` and the pqsim slowlog dump.
func FormatTree(t *Trace) string {
	if t == nil {
		return "(no trace)\n"
	}
	v := t.View()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s dur=%s", v.ID, v.Name, time.Duration(v.DurNs))
	if v.Err != "" {
		fmt.Fprintf(&b, " err=%q", v.Err)
	}
	if v.Slow {
		b.WriteString(" SLOW")
	}
	if !v.Finished {
		b.WriteString(" (unfinished)")
	}
	b.WriteByte('\n')
	// Stack of span end-times drives indentation: a span starting before
	// the top of stack ends is a child.
	type frame struct{ end uint64 }
	var stack []frame
	for _, sp := range v.Spans {
		for len(stack) > 0 && sp.Start >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		indent := strings.Repeat("  ", len(stack)+1)
		off := int64(sp.Start) - int64(v.StartNs)
		if off < 0 {
			off = 0
		}
		src := sp.Src
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(&b, "%s%-24s %-6s %12s  +%s\n",
			indent, sp.Name, src, time.Duration(sp.Dur), time.Duration(off))
		stack = append(stack, frame{end: sp.Start + sp.Dur})
	}
	if v.SpansDropped > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped)\n", v.SpansDropped)
	}
	return b.String()
}
