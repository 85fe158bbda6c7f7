package control

import (
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"printqueue/internal/faultnet"
	"printqueue/internal/telemetry"
)

// chaosSeed returns the deterministic seed for the fault-injection tests.
// CI pins it via PRINTQUEUE_CHAOS_SEED; the default keeps local runs
// reproducible too.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("PRINTQUEUE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("PRINTQUEUE_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 1
}

// chaosFixture builds a populated system served through a fault-injecting
// listener. The trace is the netFixture one: ~60 packets dequeued on port 0
// between t=1010 and t=ts, so Interval(0, 1000, ts+1) totals ~60 and any
// interval after ts is empty.
func chaosFixture(t *testing.T, fcfg faultnet.Config, opts ServeOptions) (*NetServer, uint64) {
	t.Helper()
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
	qs := NewQueryServer(s)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeQueriesListener(faultnet.Wrap(ln, fcfg), qs, opts)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// sumCounts totals a reply. The fixture's full-trace interval totals ~60 and
// an interval after the trace 0, so a reply delivered to the wrong query
// shows up as a wrong total.
func sumCounts(counts map[string]float64) float64 {
	var total float64
	for _, n := range counts {
		total += n
	}
	return total
}

// TestChaosDesyncFixedClient: a late reply never answers a later query, with
// two round trips in flight when it happens. The server's first write is
// delayed past the client's deadline; whichever waiter's deadline expires
// first poisons the connection for both, both retry on a fresh one, and each
// gets its own answer — the full-trace query ~60 packets, the empty-interval
// query none. The resilience counters move, in the client and in the
// registry counters wired to it.
func TestChaosDesyncFixedClient(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{
		Seed: chaosSeed(t), WriteLatency: 300 * time.Millisecond, SlowWrites: 1,
	}, ServeOptions{})

	reg := telemetry.NewRegistry()
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     50 * time.Millisecond,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Timeouts:    reg.Counter("printqueue_query_client_timeouts_total", "t"),
		Retries:     reg.Counter("printqueue_query_client_retries_total", "r"),
		Reconnects:  reg.Counter("printqueue_query_client_reconnects_total", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	var full, empty map[string]float64
	var fullErr, emptyErr error
	wg.Add(2)
	go func() { defer wg.Done(); full, fullErr = c.Interval(0, 1000, ts+1) }()
	go func() { defer wg.Done(); empty, emptyErr = c.Interval(0, ts+100, ts+200) }()
	wg.Wait()
	if fullErr != nil || emptyErr != nil {
		t.Fatalf("after retries: full-trace query %v, empty-interval query %v", fullErr, emptyErr)
	}
	if total := sumCounts(full); total < 50 || total > 70 {
		t.Fatalf("full-trace query total %v, want ~60", total)
	}
	if empty == nil {
		t.Fatal("empty result is nil; want a non-nil empty map")
	}
	if len(empty) != 0 {
		t.Fatalf("empty-interval query returned %d flows, want 0 (another query's reply leaked)", len(empty))
	}

	if c.Timeouts() == 0 || c.Retries() < 2 || c.Reconnects() == 0 {
		t.Fatalf("resilience counters: timeouts=%d retries=%d reconnects=%d, want > 0, >= 2 (both waiters), > 0",
			c.Timeouts(), c.Retries(), c.Reconnects())
	}
	for name, got := range map[string]int64{
		"printqueue_query_client_timeouts_total":   c.Timeouts(),
		"printqueue_query_client_retries_total":    c.Retries(),
		"printqueue_query_client_reconnects_total": c.Reconnects(),
	} {
		if reg.Counter(name, "").Load() != got {
			t.Errorf("wired counter %s = %d, want %d", name, reg.Counter(name, "").Load(), got)
		}
	}
}

// TestChaosReconnectAfterIdleClose covers the server's idle deadline and
// the client's redial: the server reclaims an idle connection, and the
// client's next query transparently reconnects.
func TestChaosReconnectAfterIdleClose(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{}, ServeOptions{IdleTimeout: 50 * time.Millisecond})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout: time.Second, MaxRetries: 2, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("first query: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // server idle deadline reclaims the conn
	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query after idle close: %v", err)
	}
	if total := sumCounts(counts); total < 50 || total > 70 {
		t.Fatalf("post-reconnect total %v, want ~60", total)
	}
	if c.Reconnects() == 0 {
		t.Error("no reconnect recorded after the server closed the idle connection")
	}
}

// TestChaosAcceptRetry injects transient accept failures (the EMFILE
// scenario that used to kill the listener forever) and checks the accept
// loop retries through them and keeps serving.
func TestChaosAcceptRetry(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{AcceptFailures: 3}, ServeOptions{})
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("query through a listener that survived accept failures: %v", err)
	}
	if got := srv.acceptRetries.Load(); got != 3 {
		t.Errorf("accept retries = %d, want 3", got)
	}
}

// TestChaosShedOverload drives the load-shedding bound: with the backlog
// artificially saturated the server answers overloaded immediately, a
// non-retrying client surfaces ErrOverloaded, and a retrying client rides
// through once capacity frees up — without reconnecting, since an overload
// reply leaves the framing intact.
func TestChaosShedOverload(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{}, ServeOptions{ShedLimit: 1})

	srv.inflight.Add(1) // saturate the backlog
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{Timeout: time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated server returned %v, want ErrOverloaded", err)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// A retrying client backs off and succeeds once the backlog drains.
	rc, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout: time.Second, MaxRetries: 3, BackoffBase: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		srv.inflight.Add(-1)
	}()
	if _, err := rc.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("retrying client did not ride through the overload: %v", err)
	}
	if rc.Retries() == 0 {
		t.Error("no retry recorded across the overload window")
	}
	if rc.Reconnects() != 0 {
		t.Errorf("overload reply caused %d reconnects; the connection should have been reused", rc.Reconnects())
	}
}

// TestChaosFaultMatrix runs batch frames through each fault family with a
// fixed seed (TestChaosBinaryFaultMatrix does the same with single-query
// frames). Each batch pairs the full-trace query with an empty-interval one.
// Chaos may cost round trips (errors after the budget), but a batch that
// succeeds must answer both of its own queries, in request order — never
// with another frame's data.
func TestChaosFaultMatrix(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		name string
		fcfg faultnet.Config
	}{
		{"drops", faultnet.Config{Seed: seed, DropWrite: 0.3}},
		{"resets", faultnet.Config{Seed: seed, Reset: 0.08}},
		{"partial-writes", faultnet.Config{Seed: seed, PartialWrite: 0.3}},
		{"latency", faultnet.Config{Seed: seed, ReadLatency: 2 * time.Millisecond, WriteLatency: 2 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := chaosFixture(t, tc.fcfg, ServeOptions{})
			c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
				Timeout:     100 * time.Millisecond,
				MaxRetries:  8,
				BackoffBase: time.Millisecond,
				BackoffMax:  10 * time.Millisecond,
				Seed:        seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			full := BatchQuery{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1}
			empty := BatchQuery{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200}
			successes := 0
			for i := 0; i < 20; i++ {
				// Alternate the order so a reply matched to the wrong slot
				// (or the previous frame's reply) is caught as a wrong total.
				fullAt := i % 2
				qs := []BatchQuery{empty, empty}
				qs[fullAt] = full
				rs, err := c.Batch(qs)
				if err != nil {
					continue // chaos may exhaust the budget; wrong data may not
				}
				successes++
				if len(rs) != 2 || rs[0].Err != nil || rs[1].Err != nil {
					t.Fatalf("batch %d: %+v", i, rs)
				}
				if total := sumCounts(rs[fullAt].Counts); total < 50 || total > 70 {
					t.Fatalf("batch %d: full-trace total %v, want ~60 (mismatched reply?)", i, total)
				}
				if total := sumCounts(rs[1-fullAt].Counts); total != 0 {
					t.Fatalf("batch %d: empty interval returned %v packets (stale reply)", i, total)
				}
			}
			if successes < 15 {
				t.Fatalf("only %d/20 batches succeeded under %s with an 8-retry budget", successes, tc.name)
			}
			t.Logf("%s: %d/20 ok, timeouts=%d retries=%d reconnects=%d",
				tc.name, successes, c.Timeouts(), c.Retries(), c.Reconnects())
		})
	}
}

// TestChaosConcurrentClientsUnderFaults hammers the server from several
// clients, a connection each, while writes drop, under -race
// (TestChaosBinaryPipelinedUnderFaults is the one-connection counterpart):
// every successful answer must be the right one for the interval asked.
func TestChaosConcurrentClientsUnderFaults(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{Seed: chaosSeed(t), DropWrite: 0.15}, ServeOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
				Timeout:     100 * time.Millisecond,
				MaxRetries:  8,
				BackoffBase: time.Millisecond,
				Seed:        int64(g + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				full := (g+i)%2 == 0
				var counts map[string]float64
				var err error
				if full {
					counts, err = c.Interval(0, 1000, ts+1)
				} else {
					counts, err = c.Interval(0, ts+100, ts+200)
				}
				if err != nil {
					continue
				}
				total := sumCounts(counts)
				if full && (total < 50 || total > 70) {
					t.Errorf("client %d query %d: total %v, want ~60", g, i, total)
				}
				if !full && total != 0 {
					t.Errorf("client %d query %d: stale response (%v packets for empty interval)", g, i, total)
				}
			}
		}(g)
	}
	wg.Wait()
}
