package control

import (
	"net"
	"sync"
	"testing"
	"time"

	"printqueue/internal/faultnet"
)

// The fault families of chaos_test.go, aimed at the framing: frames cannot
// resynchronize, so any torn frame must poison the connection rather than
// desync ids.

// TestChaosBinaryTornFramePoisons scripts the exact torn-frame hazard: a
// server whose first reply is cut off mid-frame. The client must treat the
// truncation as poison (fail + redial), and the retried query — served
// cleanly the second time — must return its own answer.
func TestChaosBinaryTornFramePoisons(t *testing.T) {
	srv, ts := netFixture(t)
	// A man-in-the-middle listener: connection 0 tears every server write
	// in half (then resets), later connections pass through cleanly.
	mitm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mitm.Close()
	var connOrdinal int
	var mu sync.Mutex
	go func() {
		for {
			down, err := mitm.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			ordinal := connOrdinal
			connOrdinal++
			mu.Unlock()
			up, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				down.Close()
				return
			}
			go proxyCopy(up, down, false) // client -> server always clean
			go proxyCopy(down, up, ordinal == 0)
		}
	}()

	c, err := DialMuxOpts(mitm.Addr().String(), DialOptions{
		Timeout:     500 * time.Millisecond,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query through a torn first reply: %v", err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("total %v, want ~60 (desynced reply?)", total)
	}
	if c.Reconnects() == 0 {
		t.Error("torn frame did not poison the connection (no redial recorded)")
	}
	// A follow-up empty-interval query must never see the first query's
	// counts — ids survived the redial.
	empty, err := c.Interval(0, ts+100, ts+200)
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty interval returned %d flows (stale response leaked)", len(empty))
	}
}

// proxyCopy shuttles bytes; when tear is set, the first write is truncated
// to half and the connection is reset — a mid-frame cut.
func proxyCopy(dst, src net.Conn, tear bool) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if tear {
				dst.Write(buf[:n/2])
				return // reset both sides mid-frame
			}
			if _, err := dst.Write(buf[:n]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestChaosBinaryFaultMatrix is TestChaosFaultMatrix with single-query
// frames: each fault family, fixed seed, and the invariant that a successful
// query never returns another query's data.
func TestChaosBinaryFaultMatrix(t *testing.T) {
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

			successes := 0
			for i := 0; i < 20; i++ {
				var counts map[string]float64
				var err error
				wantFull := i%2 == 0
				if wantFull {
					counts, err = c.Interval(0, 1000, ts+1)
				} else {
					counts, err = c.Interval(0, ts+100, ts+200)
				}
				if err != nil {
					continue // chaos may exhaust the budget; wrong data may not
				}
				successes++
				var total float64
				for _, n := range counts {
					total += n
				}
				if wantFull && (total < 50 || total > 70) {
					t.Fatalf("query %d: total %v, want ~60 (mismatched response?)", i, total)
				}
				if !wantFull && total != 0 {
					t.Fatalf("query %d: empty interval returned %v packets (stale response)", i, total)
				}
			}
			if successes < 15 {
				t.Fatalf("only %d/20 queries succeeded under %s with an 8-retry budget", successes, tc.name)
			}
			t.Logf("%s: %d/20 ok, timeouts=%d retries=%d reconnects=%d",
				tc.name, successes, c.Timeouts(), c.Retries(), c.Reconnects())
		})
	}
}

// TestChaosBinaryPipelinedUnderFaults drives one mux connection from many
// goroutines while the network drops writes: concurrent in-flight requests
// share the poison/redial machinery, and every success must be the right
// answer for its own interval.
func TestChaosBinaryPipelinedUnderFaults(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{Seed: chaosSeed(t), DropWrite: 0.1}, ServeOptions{})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     100 * time.Millisecond,
		MaxRetries:  8,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        chaosSeed(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
				var total float64
				for _, n := range counts {
					total += n
				}
				if full && (total < 50 || total > 70) {
					t.Errorf("goroutine %d query %d: total %v, want ~60", g, i, total)
				}
				if !full && total != 0 {
					t.Errorf("goroutine %d query %d: stale response (%v packets for empty interval)", g, i, total)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestChaosBinaryBatchUnderFaults retries whole batch frames through
// resets; a successful batch must answer every query correctly and in
// request order.
func TestChaosBinaryBatchUnderFaults(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{Seed: chaosSeed(t), Reset: 0.05}, ServeOptions{})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     200 * time.Millisecond,
		MaxRetries:  8,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        chaosSeed(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},
		{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200},
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},
	}
	successes := 0
	for i := 0; i < 10; i++ {
		rs, err := c.Batch(qs)
		if err != nil {
			continue
		}
		successes++
		if len(rs) != 3 {
			t.Fatalf("batch %d: %d results, want 3", i, len(rs))
		}
		for j, wantFull := range []bool{true, false, true} {
			if rs[j].Err != nil {
				t.Fatalf("batch %d result %d: %v", i, j, rs[j].Err)
			}
			var total float64
			for _, n := range rs[j].Counts {
				total += n
			}
			if wantFull && (total < 50 || total > 70) {
				t.Fatalf("batch %d result %d: total %v, want ~60 (order scrambled?)", i, j, total)
			}
			if !wantFull && total != 0 {
				t.Fatalf("batch %d result %d: %v packets for the empty interval", i, j, total)
			}
		}
	}
	if successes < 5 {
		t.Fatalf("only %d/10 batches succeeded with an 8-retry budget", successes)
	}
}

// TestChaosBinaryMidFrameLatency delays the server's first reply past the
// client's deadline with one query in flight (TestChaosDesyncFixedClient has
// two): the waiter times out, the connection is poisoned, and the retry — plus a follow-up
// empty-interval query — must both return their own answers.
func TestChaosBinaryMidFrameLatency(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{
		Seed: chaosSeed(t), WriteLatency: 300 * time.Millisecond, SlowWrites: 1,
	}, ServeOptions{})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     50 * time.Millisecond,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query A after retries: %v", err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("query A total %v, want ~60", total)
	}
	empty, err := c.Interval(0, ts+100, ts+200)
	if err != nil {
		t.Fatalf("query B: %v", err)
	}
	if len(empty) != 0 {
		t.Fatalf("query B returned %d flows, want 0 (late reply leaked)", len(empty))
	}
	if c.Timeouts() == 0 || c.Reconnects() == 0 {
		t.Fatalf("timeouts=%d reconnects=%d, want both > 0", c.Timeouts(), c.Reconnects())
	}
}
