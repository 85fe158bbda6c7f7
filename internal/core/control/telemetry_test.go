package control

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"printqueue/internal/telemetry"
)

// scrape renders the system's registry to a string.
func scrape(t *testing.T, s *System) string {
	t.Helper()
	var b strings.Builder
	if err := s.Telemetry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPipelineTelemetry drives the sharded pipeline and checks the
// instrumentation ends up in the registry: per-shard worker counters, the
// freeze-to-retire histogram, the flush counter, and introspection.
func TestPipelineTelemetry(t *testing.T) {
	cfg := testConfig(0, 1)
	cfg.PollPeriodNs = 200
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2, BatchSize: 8, RingDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	var ts uint64 = 1000
	for i := 0; i < n; i++ {
		ts += 10
		pl.Ingest(deq(fkey(byte(i&7)), i&1, ts-5, ts, 16))
	}
	pl.Flush()
	pl.Close()

	st := sys.Stats()
	if st.PacketsObserved != n {
		t.Fatalf("PacketsObserved = %d, want %d", st.PacketsObserved, n)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints taken; poll period too long for the trace")
	}
	var shardPkts int64
	for i := 0; i < 2; i++ {
		shardPkts += sys.Telemetry().Counter("printqueue_pipeline_packets_total", "",
			telemetry.L("shard", string(rune('0'+i)))).Load()
	}
	if shardPkts != n {
		t.Errorf("shard packet counters sum to %d, want %d", shardPkts, n)
	}
	if got := sys.stats.freezeRetireNs.Count(); got != int64(st.Checkpoints) {
		t.Errorf("freeze-to-retire histogram has %d observations, want %d (checkpoints)", got, st.Checkpoints)
	}

	out := scrape(t, sys)
	for _, want := range []string{
		"printqueue_pipeline_shard_ring_occupancy{shard=\"0\"}",
		"printqueue_pipeline_shard_ring_high_watermark{shard=\"1\"}",
		"printqueue_pipeline_backpressure_wait_ns_total{shard=\"0\"}",
		"printqueue_pipeline_flushes_total",
		"printqueue_checkpoint_freeze_to_retire_ns_bucket",
		"printqueue_port_packets_total{port=\"0\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	in := sys.Introspect()
	if in.Pipeline != nil {
		t.Error("introspection still reports a pipeline after Close")
	}
	if len(in.Ports) != 2 || in.Ports[0].Packets+in.Ports[1].Packets != n {
		t.Errorf("introspection ports = %+v, want %d packets across 2 ports", in.Ports, n)
	}
}

// TestIntrospectLivePipeline checks the pipeline section while the
// pipeline is open.
func TestIntrospectLivePipeline(t *testing.T) {
	sys, err := New(testConfig(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2, BatchSize: 4, RingDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	in := sys.Introspect()
	if in.Pipeline == nil {
		t.Fatal("introspection missing open pipeline")
	}
	if in.Pipeline.Shards != 2 || len(in.Pipeline.PerShard) != 2 {
		t.Fatalf("pipeline introspection = %+v, want 2 shards", in.Pipeline)
	}
	// Round-robin by rank: shard 0 gets ports {0, 2}, shard 1 gets {1}.
	if got := in.Pipeline.PerShard[0].Ports; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("shard 0 ports = %v, want [0 2]", got)
	}
}

// TestQueryServerMetrics checks the per-op latency histograms and error
// counters around the query workers.
func TestQueryServerMetrics(t *testing.T) {
	sys, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 200; i++ {
		ts += 10
		sys.OnDequeue(deq(fkey(1), 0, ts-5, ts, 8))
	}
	sys.Finalize(ts + 1)

	qs := NewQueryServer(sys)
	qs.Start(2)
	defer qs.Stop()
	if res := qs.Interval(0, 1000, ts); res.Err != nil {
		t.Fatalf("interval query: %v", res.Err)
	}
	if res := qs.Interval(9, 1000, ts); res.Err == nil {
		t.Fatal("interval query on inactive port succeeded")
	}
	if res := qs.Original(0, 0, ts/2); res.Err != nil {
		t.Fatalf("original query: %v", res.Err)
	}

	if got := qs.met.latencyNs[IntervalQuery].Count(); got != 2 {
		t.Errorf("interval latency observations = %d, want 2", got)
	}
	if got := qs.met.latencyNs[OriginalQuery].Count(); got != 1 {
		t.Errorf("original latency observations = %d, want 1", got)
	}
	if got := qs.met.errors[IntervalQuery].Load(); got != 1 {
		t.Errorf("interval errors = %d, want 1", got)
	}
	if got := qs.met.inflight.Load(); got != 0 {
		t.Errorf("inflight gauge = %d after queries drained, want 0", got)
	}
	out := scrape(t, sys)
	if !strings.Contains(out, `printqueue_query_latency_ns_bucket{op="interval",le=`) {
		t.Error("/metrics missing interval latency buckets")
	}
	// Query-path instrumentation: pruning, index hits, fan-out.
	for _, want := range []string{
		"printqueue_query_checkpoints_scanned_total",
		"printqueue_query_checkpoints_pruned_total",
		"printqueue_query_cells_visited_total",
		"printqueue_query_parallel_fanouts_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := sys.qpath.checkpointsScanned.Load(); got == 0 {
		t.Error("interval query scanned no checkpoints")
	}
	if got := sys.qpath.cellsVisited.Load(); got == 0 {
		t.Error("interval query visited no cells")
	}
}

// TestQueryClientTimeout connects the client to a listener that never
// responds: the round trip must fail with a deadline error, and the
// timeout must be counted both internally and in the wired counter.
func TestQueryClientTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-hold; conn.Close() }() // accept, never answer
		}
	}()

	reg := telemetry.NewRegistry()
	ctr := reg.Counter("printqueue_query_client_timeouts_total", "Client round trips that timed out.")
	// MaxRetries -1: this test counts exactly one attempt; the retry
	// machinery has its own coverage in chaos_test.go.
	c, err := DialMuxOpts(ln.Addr().String(), DialOptions{Timeout: 50 * time.Millisecond, MaxRetries: -1, Timeouts: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Interval(0, 1, 2)
	if err == nil {
		t.Fatal("round trip against a mute server succeeded")
	}
	var ne net.Error
	if !(errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("error is not a timeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("round trip blocked %v; deadline not applied", elapsed)
	}
	if c.Timeouts() != 1 {
		t.Errorf("client timeout count = %d, want 1", c.Timeouts())
	}
	if ctr.Load() != 1 {
		t.Errorf("registry timeout counter = %d, want 1", ctr.Load())
	}
}

// TestResilienceMetricsParity extends the metrics-parity guarantee to the
// query-plane resilience counters: shed, accept retries, and the client's
// timeout/retry/reconnect counters (wired into the same registry) must all
// appear in the Prometheus exposition with the values their in-process
// accessors report.
func TestResilienceMetricsParity(t *testing.T) {
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
	qs := NewQueryServer(sys)
	qs.Start(2)
	defer qs.Stop()
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{ShedLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := sys.Telemetry()
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     time.Second,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		Timeouts:    reg.Counter("printqueue_query_client_timeouts_total", "Client round trips that timed out."),
		Retries:     reg.Counter("printqueue_query_client_retries_total", "Client round-trip retry attempts."),
		Reconnects:  reg.Counter("printqueue_query_client_reconnects_total", "Client redials after a poisoned connection."),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Drive a shed (saturated backlog), releasing capacity only once the
	// shed has been observed so the client's retry then succeeds.
	srv.inflight.Add(1)
	go func() {
		for srv.shed.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		srv.inflight.Add(-1)
	}()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("query across overload window: %v", err)
	}
	// Drive a reconnect: sever the client's connection out from under it.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("query across severed connection: %v", err)
	}

	out := scrape(t, sys)
	for metric, want := range map[string]int64{
		"printqueue_netserver_shed_total":           srv.shed.Load(),
		"printqueue_netserver_accept_retries_total": srv.acceptRetries.Load(),
		"printqueue_query_client_timeouts_total":    c.Timeouts(),
		"printqueue_query_client_retries_total":     c.Retries(),
		"printqueue_query_client_reconnects_total":  c.Reconnects(),
		"printqueue_netserver_bad_requests_total":   0,
		"printqueue_netserver_connections_total":    srv.connections.Load(),
	} {
		line := metric + " " + strconv.FormatInt(want, 10)
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	if srv.shed.Load() == 0 {
		t.Error("shed counter did not move")
	}
	if c.Retries() == 0 || c.Reconnects() == 0 {
		t.Errorf("client resilience counters did not move: retries=%d reconnects=%d", c.Retries(), c.Reconnects())
	}
}
