package printqueue

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetrics GETs /metrics from an ops endpoint, validates the text
// exposition line by line, and returns every sample as "name{labels}" ->
// value.
func scrapeMetrics(t *testing.T, ops *OpsService) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + ops.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q does not declare exposition format 0.0.4", ct)
	}
	samples := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q has non-integer value: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// statsConfig provokes every Stats field: a short poll period for many
// checkpoints, a starved read budget so every flip is infeasible and the
// first data-plane query locks the trigger (suppressing the rest), and a
// low depth trigger so deep packets fire it.
func statsConfig() Config {
	cfg := Config{
		TimeWindows: TimeWindowConfig{
			M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelay: 10 * time.Nanosecond,
		},
		QueueMonitor:          QueueMonitorConfig{MaxDepthCells: 1024, GranuleCells: 4},
		Ports:                 []int{0},
		PollPeriod:            time.Microsecond,
		ReadRateEntriesPerSec: 1, // one entry per second: every read is infeasible
		DPTriggerDepthCells:   10,
	}
	return cfg
}

// TestStatsMetricsParity guards the Stats field mapping end to end: drive
// periodic checkpoints, a data-plane trigger, suppressed triggers, and
// infeasible flips, then require every Stats field to be nonzero and equal
// to its /metrics sample — adding a counter without exporting it (or
// vice versa) fails here.
func TestStatsMetricsParity(t *testing.T) {
	pq, err := New(statsConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := FlowID{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: 6}
	var ts uint64 = 1000
	for i := 0; i < 500; i++ {
		ts += 100
		pq.Observe(Packet{Flow: f, Port: 0, Bytes: 100}, ts-50, ts, 50)
	}
	pq.Finalize(ts + 1)

	st := pq.Stats()
	if st.Checkpoints == 0 || st.SpecialFreezes == 0 || st.EntriesRead == 0 ||
		st.InfeasibleFlips == 0 || st.DPSuppressed == 0 || st.PacketsObserved == 0 {
		t.Fatalf("test drive left a Stats field zero: %+v", st)
	}

	ops, err := pq.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	m := scrapeMetrics(t, ops)

	for _, tt := range []struct {
		metric string
		want   int64
	}{
		{"printqueue_checkpoints_total", int64(st.Checkpoints)},
		{"printqueue_special_freezes_total", int64(st.SpecialFreezes)},
		{"printqueue_checkpoint_entries_read_total", st.EntriesRead},
		{"printqueue_infeasible_flips_total", int64(st.InfeasibleFlips)},
		{"printqueue_dp_suppressed_total", int64(st.DPSuppressed)},
		{`printqueue_port_packets_total{port="0"}`, st.PacketsObserved},
	} {
		got, ok := m[tt.metric]
		if !ok {
			t.Errorf("/metrics missing %s", tt.metric)
			continue
		}
		if got != tt.want {
			t.Errorf("%s = %d, but Stats reports %d", tt.metric, got, tt.want)
		}
	}
	// What the checkpoints hold, beside what the hardware model charges for
	// reading them: a part of it, on /metrics and in /debug/history alike.
	kept := m["printqueue_checkpoint_cells_kept_total"]
	if kept <= 0 || kept >= st.EntriesRead {
		t.Errorf("checkpoints kept %d cells of %d register entries read, want some but not all", kept, st.EntriesRead)
	}
	resp, err := http.Get("http://" + ops.Addr() + "/debug/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Read int64 `json:"checkpoint_entries_read"`
		Kept int64 `json:"checkpoint_cells_kept"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil || hist.Read != st.EntriesRead || hist.Kept != kept {
		t.Errorf("/debug/history reports %d read, %d kept (err %v); /metrics %d and %d", hist.Read, hist.Kept, err, st.EntriesRead, kept)
	}
	// The freeze-to-retire histogram must have one observation per freeze
	// (periodic and special alike).
	if got := m["printqueue_checkpoint_freeze_to_retire_ns_count"]; got != int64(st.Checkpoints+st.SpecialFreezes) {
		t.Errorf("freeze-to-retire count = %d, want %d", got, st.Checkpoints+st.SpecialFreezes)
	}
	// Observed serially, a freeze is decided, taken and retired on the
	// caller: the ingest-to-retire histogram is the freeze-to-retire one.
	for _, part := range []string{"_count", "_sum"} {
		ingest, freeze := m["printqueue_checkpoint_ingest_to_retire_ns"+part], m["printqueue_checkpoint_freeze_to_retire_ns"+part]
		if ingest != freeze {
			t.Errorf("ingest-to-retire%s = %d, freeze-to-retire%s = %d; serially they are one", part, ingest, part, freeze)
		}
	}
}

// TestServeOpsUnderPipelineLoad is the acceptance check: with the sharded
// pipeline open and a query served, /metrics exposes ring occupancy,
// backpressure nanoseconds, freeze-to-retire buckets, and query latency
// histograms, and the other ops endpoints respond.
func TestServeOpsUnderPipelineLoad(t *testing.T) {
	cfg := DefaultConfig(0, 1)
	cfg.PollPeriod = 10 * time.Microsecond
	cfg.MaxCheckpoints = 8
	pq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := pq.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	pl, err := pq.StartPipeline(PipelineConfig{Shards: 2, BatchSize: 64, RingDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := FlowID{SrcIP: [4]byte{10, 0, 0, 9}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 9, DstPort: 80, Proto: 17}
	var ts uint64 = 1000
	for i := 0; i < 50000; i++ {
		ts += 80
		pl.Observe(Packet{Flow: f, Port: i & 1, Bytes: 100}, ts-40, ts, 30)
	}
	pl.Flush()

	// Scrape while the pipeline is still open: the ops endpoint must not
	// perturb or block ingestion.
	m := scrapeMetrics(t, ops)
	for _, name := range []string{
		`printqueue_pipeline_shard_ring_occupancy{shard="0"}`,
		`printqueue_pipeline_shard_ring_high_watermark{shard="0"}`,
		`printqueue_pipeline_backpressure_wait_ns_total{shard="0"}`,
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics missing %s while pipeline open", name)
		}
	}
	pl.Close()
	pq.Finalize(ts + 1)

	// Serve one query so the query-path histograms have observations.
	svc, err := pq.Serve("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	qc, err := DialQueriesMux(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, err := qc.Interval(0, ts-4000, ts); err != nil {
		t.Fatal(err)
	}

	m = scrapeMetrics(t, ops)
	if m[`printqueue_pipeline_packets_total{shard="0"}`]+m[`printqueue_pipeline_packets_total{shard="1"}`] != 50000 {
		t.Error("shard packet counters do not sum to the ingested total")
	}
	if m["printqueue_checkpoint_freeze_to_retire_ns_count"] == 0 {
		t.Error("freeze-to-retire histogram empty after checkpoints")
	}
	found := false
	for name := range m {
		if strings.HasPrefix(name, `printqueue_checkpoint_freeze_to_retire_ns_bucket{le="`) {
			found = true
			break
		}
	}
	if !found {
		t.Error("/metrics missing freeze-to-retire histogram buckets")
	}
	if m[`printqueue_query_latency_ns_count{op="interval"}`] != 1 {
		t.Errorf("interval query latency count = %d, want 1",
			m[`printqueue_query_latency_ns_count{op="interval"}`])
	}
	if m["printqueue_netserver_requests_total"] != 1 {
		t.Errorf("netserver requests = %d, want 1", m["printqueue_netserver_requests_total"])
	}
	// Resilience counters register with the listener and must be scrapeable
	// even before they move.
	for _, name := range []string{
		"printqueue_netserver_shed_total",
		"printqueue_netserver_accept_retries_total",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}

	for _, path := range []string{"/healthz", "/debug/vars", "/debug/pipeline"} {
		resp, err := http.Get("http://" + ops.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/debug/pipeline" && !strings.Contains(string(body), `"ports"`) {
			t.Errorf("/debug/pipeline missing ports section: %s", body)
		}
	}
}

// TestPipelineAttachError covers the activated-port bounds check: attaching
// to a switch that lacks an activated port must fail, naming the port,
// rather than silently monitoring a subset.
func TestPipelineAttachError(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Ports: 2, LinkBps: 10e9, BufferCells: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := New(DefaultConfig(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pq.StartPipeline(PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	err = pl.Attach(sw)
	if err == nil {
		t.Fatal("Attach accepted an activated port beyond the switch's port count")
	}
	if !strings.Contains(err.Error(), "[3]") {
		t.Errorf("error %q does not name the unattachable port 3", err)
	}

	pq2, err := New(DefaultConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := pq2.StartPipeline(PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pl2.Close()
	if err := pl2.Attach(sw); err != nil {
		t.Fatalf("Attach failed on fully covered switch: %v", err)
	}
}

// TestPipelineObserveAfterCloseCounted: Attach's egress hooks stay on the
// switch when the pipeline closes. What the switch forwards afterwards, and
// what a caller Observes afterwards, is refused and shows on /metrics and
// /debug/pipeline instead of vanishing.
func TestPipelineObserveAfterCloseCounted(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Ports: 2, LinkBps: 10e9, BufferCells: 10000})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := New(DefaultConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := pq.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	pl, err := pq.StartPipeline(PipelineConfig{Shards: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Attach(sw); err != nil {
		t.Fatal(err)
	}
	f := FlowID{SrcIP: [4]byte{10, 0, 0, 9}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 9, DstPort: 80, Proto: 17}
	var ts uint64
	forward := func(n int) {
		for i := 0; i < n; i++ {
			ts += 100
			sw.Inject(Packet{Flow: f, Port: i & 1, Bytes: 100, Arrival: ts})
		}
		sw.Flush()
	}
	forward(2000)
	pl.Close()
	forward(1500) // the switch keeps forwarding into the closed pipeline's hooks
	for i := 0; i < 500; i++ {
		ts += 100
		pl.Observe(Packet{Flow: f, Port: i & 1, Bytes: 100}, ts-40, ts, 30)
	}
	pl.Flush()

	if got := pq.Stats().PacketsObserved; got != 2000 {
		t.Fatalf("PacketsObserved = %d, want the 2000 forwarded before Close", got)
	}
	m := scrapeMetrics(t, ops)
	if got := m["printqueue_pipeline_ingest_after_close_total"]; got != 2000 {
		t.Fatalf("printqueue_pipeline_ingest_after_close_total = %d, want 2000", got)
	}
	resp, err := http.Get("http://" + ops.Addr() + "/debug/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"ingest_after_close": 2000`) {
		t.Fatalf("/debug/pipeline does not report the refused packets: %s", body)
	}
}

// TestQueryClientTimeoutsExposed checks the public client's timeout
// accounting against a listener that accepts and never answers.
func TestQueryClientTimeoutsExposed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold silently until the listener closes
		}
	}()

	// MaxRetries -1: exactly one attempt so exactly one timeout is counted.
	c, err := DialQueriesMuxOpts(ln.Addr().String(), DialOptions{Timeout: 50 * time.Millisecond, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1, 2); err == nil {
		t.Fatal("query against a mute server succeeded")
	}
	if got := c.Timeouts(); got != 1 {
		t.Errorf("Timeouts() = %d, want 1", got)
	}
}
