package control

import (
	"strings"
	"testing"
	"time"

	"printqueue/internal/faultnet"
	"printqueue/internal/flow"
	"printqueue/internal/tracing"
)

// waitTraceParity polls until the tracer has closed every trace it opened
// (server-side closure runs on the connection writer, asynchronously to
// the client's round trip).
func waitTraceParity(t *testing.T, tr *tracing.Tracer, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tr.Started() == tr.Finished() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d traces started, only %d finished (orphans leaked)",
				what, tr.Started(), tr.Finished())
		}
		time.Sleep(time.Millisecond)
	}
}

// spanNames collects the distinct span names of a trace.
func spanNames(tr *tracing.Trace) map[string]string {
	names := make(map[string]string)
	for _, sp := range tr.Spans() {
		names[sp.Name] = sp.Src
	}
	return names
}

// TestEndToEndTraceBinaryMux is the tentpole acceptance test: one query
// over the binary mux protocol yields ONE joined trace holding at least six
// named stages spanning both sides of the wire.
func TestEndToEndTraceBinaryMux(t *testing.T) {
	srv, ts := netFixture(t)
	tracer := tracing.New(tracing.Config{SampleEvery: 1})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("traced query returned no counts")
	}
	waitTraceParity(t, tracer, "client")

	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Finished() {
		t.Fatal("trace not finished")
	}
	if tr.Err() != "" {
		t.Fatalf("trace recorded error %q", tr.Err())
	}
	if tr.Name() != "interval" {
		t.Fatalf("trace name = %q, want interval", tr.Name())
	}
	names := spanNames(tr)
	for _, want := range []string{
		"client.encode", "client.write", "client.await",
		"server.dispatch", "server.queue", "server.execute",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("trace missing stage %q (have %v)", want, names)
		}
	}
	if len(names) < 6 {
		t.Fatalf("trace has %d named stages, want >= 6: %v", len(names), names)
	}
	var clientSide, serverSide bool
	for _, src := range names {
		clientSide = clientSide || src == tracing.SrcClient
		serverSide = serverSide || src == tracing.SrcServer
	}
	if !clientSide || !serverSide {
		t.Fatalf("trace does not span both sides: client=%v server=%v (%v)", clientSide, serverSide, names)
	}
	if out := tracing.FormatTree(tr); !strings.Contains(out, "server.execute") {
		t.Fatalf("FormatTree lost the server stages:\n%s", out)
	}
}

// TestEndToEndTraceBatch checks the batch op joins per-query server spans
// into one "batch" trace.
func TestEndToEndTraceBatch(t *testing.T) {
	srv, ts := netFixture(t)
	tracer := tracing.New(tracing.Config{SampleEvery: 1})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Batch([]BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts},
	})
	if err != nil || len(rs) != 2 {
		t.Fatalf("batch: %v (%d results)", err, len(rs))
	}
	waitTraceParity(t, tracer, "client")
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Name() != "batch" {
		t.Fatalf("trace name = %q, want batch", tr.Name())
	}
	names := spanNames(tr)
	if _, ok := names["server.execute"]; !ok {
		t.Fatalf("batch trace missing server.execute: %v", names)
	}
	// Two queries executed under one batch trace: server.execute twice, and
	// each waited for the history's read lock once.
	var execs, lockWaits int
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "server.execute":
			execs++
		case "server.lock_wait":
			lockWaits++
		}
	}
	if execs != 2 || lockWaits != 2 {
		t.Fatalf("batch trace has %d server.execute and %d server.lock_wait spans, want 2 of each", execs, lockWaits)
	}
}

// TestServerTraceRingJoinsRemote verifies that when the server system has
// tracing enabled, a remote traced query lands in the SERVER's trace ring
// under the client's trace id, with the server.write span (which cannot
// travel in the reply it measures) recorded there.
func TestServerTraceRingJoinsRemote(t *testing.T) {
	cfg := testConfig(0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	serverTracer, _ := s.EnableTracing(TraceOptions{})
	qs := NewQueryServer(s)
	qs.Start(2)
	defer qs.Stop()
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientTracer := tracing.New(tracing.Config{SampleEvery: 1})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{Tracer: clientTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatal(err)
	}
	waitTraceParity(t, clientTracer, "client")
	waitTraceParity(t, serverTracer, "server")

	clientTraces := clientTracer.Traces()
	if len(clientTraces) != 1 {
		t.Fatalf("client has %d traces, want 1", len(clientTraces))
	}
	id := clientTraces[0].ID()
	st := serverTracer.Find(id)
	if st == nil {
		t.Fatalf("server ring has no trace %s", tracing.FormatID(id))
	}
	if !st.Finished() {
		t.Fatal("server-side trace not finished")
	}
	if _, ok := spanNames(st)["server.write"]; !ok {
		t.Fatalf("server-side trace missing server.write: %v", spanNames(st))
	}
}

// TestWireDifferentialTraced reruns the wire-vs-in-process differential with
// tracing forced on for the client and the server (so every request carries
// a trace id, every reply the server's spans, and the in-process reference
// is sampled too): results must stay bit-equal — tracing must never perturb
// answers.
func TestWireDifferentialTraced(t *testing.T) {
	srv, ts := netFixture(t)
	st, _ := srv.qs.sys.EnableTracing(TraceOptions{SampleEvery: 1})
	bt := tracing.New(tracing.Config{SampleEvery: 1})
	bc, err := DialMuxOpts(srv.Addr().String(), DialOptions{Tracer: bt})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	runWireDifferential(t, srv.qs.sys, ts, bc)
	if st.Started() == 0 || bt.Started() == 0 {
		t.Fatalf("tracing was not exercised: server=%d client=%d", st.Started(), bt.Started())
	}
}

// TestChaosTracesWellFormed runs traced clients through the fault matrix:
// torn frames, resets, and retries must still leave every opened trace
// closed (orphan-closure), on the client and the server.
func TestChaosTracesWellFormed(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		name string
		fcfg faultnet.Config
	}{
		{"drops", faultnet.Config{Seed: seed, DropWrite: 0.3}},
		{"resets", faultnet.Config{Seed: seed, Reset: 0.08}},
		{"partial-writes", faultnet.Config{Seed: seed, PartialWrite: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := chaosFixture(t, tc.fcfg, ServeOptions{})
			serverTracer, _ := srv.qs.sys.EnableTracing(TraceOptions{})
			tracer := tracing.New(tracing.Config{SampleEvery: 1, RingSize: 1024})
			c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
				Timeout:     100 * time.Millisecond,
				MaxRetries:  8,
				BackoffBase: time.Millisecond,
				BackoffMax:  10 * time.Millisecond,
				Seed:        seed,
				Tracer:      tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			successes := 0
			for i := 0; i < 20; i++ {
				if _, err := c.Interval(0, 1000, ts+1); err == nil {
					successes++
				}
			}
			if successes == 0 {
				t.Fatal("no query survived the fault injection")
			}
			// Every client trace must be closed the moment its query
			// returns; the server closes via its writer, asynchronously.
			waitTraceParity(t, tracer, "client")
			waitTraceParity(t, serverTracer, "server")
			for _, tr := range tracer.Traces() {
				if !tr.Finished() {
					t.Fatalf("unfinished trace %s in ring", tracing.FormatID(tr.ID()))
				}
			}
			t.Logf("%s: %d/20 ok, client traces=%d server traces=%d",
				tc.name, successes, tracer.Finished(), serverTracer.Finished())
		})
	}
}

// TestTraceMetricsParity extends the metrics-parity guarantee to the
// tracing plane: the trace lifecycle counters and per-kind event counters
// must appear in /metrics with the values their accessors report, and
// every registered family must appear in the exposition (registry audit).
func TestTraceMetricsParity(t *testing.T) {
	cfg := testConfig(0)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	sys.Finalize(ts + 1)
	tracer, events := sys.EnableTracing(TraceOptions{SampleEvery: 1})
	if _, err := sys.QueryInterval(0, 1000, ts+1); err != nil {
		t.Fatal(err)
	}
	events.Record(tracing.EventShed, "test", 1, 0)

	out := scrape(t, sys)
	for _, line := range []string{
		"printqueue_traces_started_total " + itoa(tracer.Started()),
		"printqueue_traces_finished_total " + itoa(tracer.Finished()),
		"printqueue_traces_slow_total " + itoa(tracer.SlowCount()),
		"printqueue_trace_spans_dropped_total " + itoa(tracer.SpansDropped()),
		`printqueue_events_total{kind="shed"} 1`,
		`printqueue_events_total{kind="backpressure"} 0`,
		`printqueue_events_total{kind="ring_high_watermark"} 0`,
		`printqueue_events_total{kind="freeze_stall"} 0`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	if tracer.Started() == 0 || tracer.Finished() == 0 {
		t.Fatal("local sampling did not trace the query")
	}
	// Registry audit: every registered family renders in the exposition.
	for _, name := range sys.Telemetry().Names() {
		if !strings.Contains(out, "\n"+name) && !strings.Contains(out, name+" ") &&
			!strings.Contains(out, name+"{") && !strings.Contains(out, name+"_bucket") {
			t.Errorf("registered metric %q absent from /metrics", name)
		}
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestTracingDisabledZeroOverheadPaths pins the disabled-tracing fast
// paths at zero allocations: an untraced request and its reply encode for
// free, the nil tracer/trace receivers are free, a nil event log Record
// no-ops, and an untraced query takes the history's read lock without a
// lock-wait span.
func TestTracingDisabledZeroOverheadPaths(t *testing.T) {
	qs := []BatchQuery{{Kind: IntervalQuery, Port: 1, Start: 5, End: 9}}
	resps := []wireReply{{Counts: flow.Counts{fkey(1): 2}}}
	var untraced *tracing.Trace
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendRequest(buf[:0], 7, untraced.ID(), qs)
		buf = appendResponse(buf[:0], 7, untraced.Spans(), resps)
	}); n > 0 {
		t.Errorf("an untraced request and reply allocate %.1f/op to encode, want 0", n)
	}
	var tracer *tracing.Tracer
	var trace *tracing.Trace
	var log *tracing.EventLog
	if n := testing.AllocsPerRun(200, func() {
		tr := tracer.Start("interval")
		sp := tr.StartSpan("x", tracing.SrcClient)
		sp.End()
		tr.FinishErr(nil)
		trace.AddSpans(nil)
		tracer.MaybeSlow("interval", time.Time{}, 0, nil)
		log.Record(tracing.EventShed, "s", 1, 0)
	}); n > 0 {
		t.Errorf("nil tracing receivers allocate %.1f/op, want 0", n)
	}
	ps := &portState{}
	if n := testing.AllocsPerRun(200, func() {
		ps.rlock(nil)
		ps.mu.RUnlock()
	}); n > 0 {
		t.Errorf("untraced history read lock allocates %.1f/op, want 0", n)
	}
}
