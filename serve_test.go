package printqueue

import (
	"testing"
	"time"
)

// TestServeEndToEnd runs a simulation, serves queries over TCP, and
// diagnoses a victim through the network client.
func TestServeEndToEnd(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Ports: 1, LinkBps: 10e9, BufferCells: 60000})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := New(Config{
		TimeWindows:  TimeWindowConfig{M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelay: 1200 * time.Nanosecond},
		QueueMonitor: QueueMonitorConfig{MaxDepthCells: 65536, GranuleCells: 19},
		Ports:        []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	pq.Attach(sw)
	tlog := sw.AttachLog(0)
	pkts, _, err := Microburst(MicroburstScenario{
		LinkBps: 10e9, Seed: 5, BurstStart: time.Millisecond, Duration: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		sw.Inject(p)
	}
	sw.Flush()
	pq.Finalize(sw.Now() + 1)

	svc, err := pq.Serve("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	client, err := DialQueriesMux(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	victims := tlog.Victims(1000, 1)
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	v := tlog.Record(victims[0])
	remote, err := client.Interval(0, v.EnqTime, v.DeqTime)
	if err != nil {
		t.Fatal(err)
	}
	local, err := pq.QueryInterval(0, v.EnqTime, v.DeqTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote %d flows, local %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].Flow != local[i].Flow || remote[i].Packets != local[i].Packets {
			t.Fatalf("entry %d differs: %+v vs %+v", i, remote[i], local[i])
		}
	}
	orig, err := client.Original(0, 0, v.EnqTime)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Total() == 0 {
		t.Fatal("remote original query empty")
	}
	if _, err := client.Interval(7, 0, 1); err == nil {
		t.Fatal("remote bad-port query succeeded")
	}
}

// TestServeMuxEndToEnd drives a small fixture through the public client:
// single queries, traced and untraced, that agree entry for entry with the
// in-process answer, and a mixed batch.
func TestServeMuxEndToEnd(t *testing.T) {
	pq, err := New(Config{
		TimeWindows:  TimeWindowConfig{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelay: 10 * time.Nanosecond},
		QueueMonitor: QueueMonitorConfig{MaxDepthCells: 1024, GranuleCells: 4},
		Ports:        []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 50; i++ {
		ts += 10
		pq.Observe(Packet{Flow: testFlow(byte(i % 3)), Bytes: 100, Port: 0}, ts-40, ts, 8)
	}
	pq.Finalize(ts + 1)

	svc, err := pq.Serve("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	mux, err := DialQueriesMux(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	tracer := NewTracer(1, 0) // every query goes out as a traced frame
	traced, err := DialQueriesMuxOpts(svc.Addr(), DialOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()

	local, err := pq.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if local.Total() < 45 {
		t.Fatalf("in-process answer recovered %v packets, want ~50", local.Total())
	}
	for name, c := range map[string]*MuxQueryClient{"untraced": mux, "traced": traced} {
		remote, err := c.Interval(0, 1000, ts+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != len(local) {
			t.Fatalf("%s: remote %d flows, in-process %d", name, len(remote), len(local))
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("%s: entry %d differs from the in-process answer: %+v vs %+v", name, i, remote[i], local[i])
			}
		}
	}
	if len(tracer.Traces()) == 0 {
		t.Fatal("the traced client sent no traced frame")
	}

	rs, err := mux.Batch([]BatchQuery{
		{Kind: "interval", Port: 0, Start: 1000, End: ts + 1},
		{Kind: "original", Port: 0, Queue: 0, At: ts},
		{Kind: "interval", Port: 7, Start: 0, End: 1}, // per-query error
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(rs))
	}
	if rs[0].Err != nil || rs[0].Report.Total() != local.Total() {
		t.Fatalf("batch[0] = %+v, want the interval report", rs[0])
	}
	if rs[1].Err != nil || rs[1].Report.Total() == 0 {
		t.Fatalf("batch[1] = %+v, want original culprits", rs[1])
	}
	if rs[2].Err == nil {
		t.Fatal("batch[2] bad-port query succeeded")
	}
	if _, err := mux.Batch([]BatchQuery{{Kind: "bogus"}}); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
	if rs, err := mux.Batch(nil); rs != nil || err != nil {
		t.Fatalf("empty batch = %v, %v", rs, err)
	}
	if mux.InFlight() != 0 {
		t.Errorf("InFlight() = %d at rest, want 0", mux.InFlight())
	}
	_ = mux.Timeouts()
	_ = mux.Retries()
	_ = mux.Reconnects()
}

func TestDialQueriesError(t *testing.T) {
	if _, err := DialQueriesMux("127.0.0.1:1"); err == nil {
		t.Skip("something is listening on port 1")
	}
}

// TestServeResilienceEndToEnd exercises the public resilience surface: a
// server with a short idle timeout closes the client's connection between
// queries, and the client transparently redials and answers the second
// query, counting the reconnect.
func TestServeResilienceEndToEnd(t *testing.T) {
	pq, err := New(Config{
		TimeWindows:  TimeWindowConfig{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelay: 10 * time.Nanosecond},
		QueueMonitor: QueueMonitorConfig{MaxDepthCells: 1024, GranuleCells: 4},
		Ports:        []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 50; i++ {
		ts += 10
		pq.Observe(Packet{Flow: testFlow(byte(i % 3)), Bytes: 100, Port: 0}, ts-40, ts, 8)
	}
	pq.Finalize(ts + 1)

	svc, err := pq.ServeOpts("127.0.0.1:0", 2, ServeOptions{IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client, err := DialQueriesMuxOpts(svc.Addr(), DialOptions{
		Timeout: 2 * time.Second, MaxRetries: 3, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	first, err := client.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Total() < 45 {
		t.Fatalf("first query recovered %v packets, want ~50", first.Total())
	}
	// Wait out the server's idle deadline so it closes the connection.
	time.Sleep(300 * time.Millisecond)
	second, err := client.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query after idle disconnect: %v", err)
	}
	if second.Total() != first.Total() {
		t.Fatalf("second query recovered %v packets, want %v", second.Total(), first.Total())
	}
	if client.Reconnects() < 1 {
		t.Errorf("Reconnects() = %d after idle disconnect, want >= 1", client.Reconnects())
	}
	// The client's reader saw the close when it happened, so the second query
	// redialled before sending: the idle disconnect costs none of the retry
	// budget.
	if client.Retries() != 0 {
		t.Errorf("Retries() = %d after idle disconnect, want 0", client.Retries())
	}
}
