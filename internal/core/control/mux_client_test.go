package control

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"printqueue/internal/flow"
)

func TestMuxClientRoundTrip(t *testing.T) {
	srv, ts := netFixture(t)
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("interval total %v, want ~60", total)
	}

	orig, err := c.Original(0, 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) == 0 {
		t.Fatal("original query returned nothing")
	}

	empty, err := c.Interval(0, ts+100, ts+200)
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty result = %v, want non-nil empty map", empty)
	}

	if _, err := c.Interval(9, 0, 1); err == nil {
		t.Fatal("unknown-port query succeeded")
	}
	if _, err := c.Interval(0, 5, 5); err == nil {
		t.Fatal("empty interval succeeded")
	}
}

// TestMuxClientPipelined hammers one connection from many goroutines with
// interleaved full/empty interval queries: every answer must match its own
// question, which is exactly what the per-id pending map guarantees.
func TestMuxClientPipelined(t *testing.T) {
	srv, ts := netFixture(t)
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				full := (g+i)%2 == 0
				var counts map[string]float64
				var err error
				if full {
					counts, err = c.Interval(0, 1000, ts+1)
				} else {
					counts, err = c.Interval(0, ts+100, ts+200)
				}
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				var total float64
				for _, n := range counts {
					total += n
				}
				if full && (total < 50 || total > 70) {
					t.Errorf("goroutine %d query %d: total %v, want ~60 (cross-wired reply?)", g, i, total)
				}
				if !full && total != 0 {
					t.Errorf("goroutine %d query %d: empty interval returned %v packets", g, i, total)
				}
			}
		}(g)
	}
	wg.Wait()
	// Only one TCP connection carried all of it.
	if got := srv.connections.Load(); got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
}

func TestMuxClientBatch(t *testing.T) {
	srv, ts := netFixture(t)
	_ = srv
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},
		{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200},
		{Kind: IntervalQuery, Port: 9, Start: 0, End: 1}, // per-query error
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts},
	}
	rs, err := c.Batch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(qs) {
		t.Fatalf("batch returned %d results, want %d", len(rs), len(qs))
	}
	var total float64
	for _, n := range rs[0].Counts {
		total += n
	}
	if rs[0].Err != nil || total < 50 || total > 70 {
		t.Fatalf("batch[0] = %+v (total %v), want ~60 packets", rs[0], total)
	}
	if rs[1].Err != nil || len(rs[1].Counts) != 0 || rs[1].Counts == nil {
		t.Fatalf("batch[1] = %+v, want non-nil empty counts", rs[1])
	}
	if rs[2].Err == nil {
		t.Fatal("batch[2] unknown-port query succeeded")
	}
	if rs[3].Err != nil || len(rs[3].Counts) == 0 {
		t.Fatalf("batch[3] = %+v, want original culprits", rs[3])
	}

	// Zero-query batch is a local no-op: a request of no query is
	// malformed on the wire.
	if rs, err := c.Batch(nil); err != nil || rs != nil {
		t.Fatalf("empty batch = %v, %v", rs, err)
	}
	if got := srv.requests.Load(); got != int64(len(qs)) {
		t.Errorf("requests counter = %d, want %d", got, len(qs))
	}
}

// TestMuxClientLateReplyDiscarded forces a round-trip timeout, then
// verifies the connection was poisoned and the next query — on a fresh
// connection — gets its own answer.
func TestMuxClientLateReplyDiscarded(t *testing.T) {
	srv, ts := netFixture(t)
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     30 * time.Millisecond,
		MaxRetries:  -1, // observe the raw timeout
		BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Saturate the shed limit so the server cannot answer, guaranteeing a
	// client-side deadline expiry without any server cooperation... except
	// a shed reply would arrive immediately. Instead, stall the query by
	// pointing the client at a listener that accepts and stays silent.
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
			defer conn.Close()
			_ = conn // accept and never reply
		}
	}()
	silent, err := DialMuxOpts(ln.Addr().String(), DialOptions{
		Timeout: 30 * time.Millisecond, MaxRetries: -1, BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := silent.Interval(0, 1, 2); err == nil {
		t.Fatal("query against a silent server succeeded")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want a timeout", err)
		}
	}
	if silent.Timeouts() != 1 {
		t.Errorf("timeouts = %d, want 1", silent.Timeouts())
	}

	// The real client still answers correctly after its peer's timeout
	// drama — and a retrying client against the real server stays correct.
	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("total %v, want ~60", total)
	}
}

// TestMuxClientReconnect severs the connection out from under the client;
// the next query must redial transparently and count the reconnect.
func TestMuxClientReconnect(t *testing.T) {
	srv, ts := netFixture(t)
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout: time.Second, MaxRetries: 2, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query across severed connection: %v", err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("post-reconnect total %v, want ~60", total)
	}
	if c.Reconnects() == 0 {
		t.Error("reconnect not counted")
	}
}

// TestMuxClientRetriesGarbledReply: a reply stream that loses framing fails
// the round trips in flight on it as a desync, and they are retried on a
// fresh connection. The peer's first connection waits for two requests and
// answers them with a bad-magic frame; every later one is proxied to a real
// server. (The reader used to fail the waiters with the bare frame error,
// which is not retryable: both calls returned "control: bad frame magic".)
func TestMuxClientRetriesGarbledReply(t *testing.T) {
	srv, ts := netFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n == 0 {
				go func() {
					defer conn.Close()
					br := bufio.NewReader(conn)
					for range 2 {
						if _, _, err := readFrame(br, nil, maxFramePayload); err != nil {
							return
						}
					}
					conn.Write([]byte{^frameMagic, opResponse, 0, 0, 0, 0})
				}()
				continue
			}
			proxy(conn, srv.Addr().String())
		}
	}()

	c, err := DialMuxOpts(ln.Addr().String(), DialOptions{
		Timeout: 2 * time.Second, MaxRetries: 2, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts, err := c.Interval(0, 1000, ts+1)
			if err != nil {
				t.Errorf("round trip %d across a garbled reply: %v", g, err)
				return
			}
			if total := sumCounts(counts); total < 50 || total > 70 {
				t.Errorf("round trip %d: total %v, want ~60", g, total)
			}
		}()
	}
	wg.Wait()
	if c.Retries() < 1 || c.Reconnects() < 1 {
		t.Errorf("retries = %d, reconnects = %d; want both >= 1", c.Retries(), c.Reconnects())
	}
}

// proxy relays conn to a new connection to addr, both ways.
func proxy(conn net.Conn, addr string) {
	up, err := net.Dial("tcp", addr)
	if err != nil {
		conn.Close()
		return
	}
	go func() { io.Copy(up, conn); up.Close() }()
	go func() { io.Copy(conn, up); conn.Close() }()
}

// TestMuxClientReplyCountMismatch: a reply that carries more or fewer
// results than its request has queries answers nothing. The client poisons
// the connection and retries on a fresh one, as after an undecodable frame;
// once the retries run out it returns a desync error — never an empty or a
// partial answer. The peer answers each request on its first bad
// connections with delta results too many, every 42-packet result for one
// flow, and proxies later connections to a real server. (A single query
// used to take such a reply as an empty answer, and a batch to fail with an
// error that was not retried, on a connection left in use.)
func TestMuxClientReplyCountMismatch(t *testing.T) {
	srv, ts := netFixture(t)
	peer := func(t *testing.T, bad, delta int) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for n := 0; ; n++ {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if n >= bad {
					proxy(conn, srv.Addr().String())
					continue
				}
				go func() {
					defer conn.Close()
					br := bufio.NewReader(conn)
					for {
						_, payload, err := readFrame(br, nil, maxFramePayload)
						if err != nil {
							return
						}
						id, _, qs, err := decodeRequest(payload)
						if err != nil {
							return
						}
						resps := make([]wireReply, len(qs)+delta)
						for i := range resps {
							resps[i].Counts = flow.Counts{fkey(1): 42}
						}
						conn.Write(appendResponse(nil, id, nil, resps))
					}
				}()
			}
		}()
		return ln.Addr().String()
	}
	full := BatchQuery{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1}
	for _, tc := range []struct {
		name  string
		delta int
		ask   func(t *testing.T, c *MuxClient) ([]float64, error) // each answer's packet total
	}{
		{"one query answered with two results", 1, func(t *testing.T, c *MuxClient) ([]float64, error) {
			counts, err := c.Interval(full.Port, full.Start, full.End)
			if counts != nil && err != nil {
				t.Errorf("an error came with an answer: %v", counts)
			}
			if err != nil {
				return nil, err
			}
			return []float64{sumCounts(counts)}, nil
		}},
		{"a batch of two answered with one result", -1, func(t *testing.T, c *MuxClient) ([]float64, error) {
			rs, err := c.Batch([]BatchQuery{full, full})
			if rs != nil && err != nil {
				t.Errorf("an error came with %d results", len(rs))
			}
			var totals []float64
			for _, r := range rs {
				if r.Err != nil {
					return nil, r.Err
				}
				totals = append(totals, sumCounts(r.Counts))
			}
			return totals, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every connection miscounts: the retry redials, and the last
			// attempt's desync is returned.
			c, err := DialMuxOpts(peer(t, 1<<30, tc.delta), DialOptions{
				Timeout: 2 * time.Second, MaxRetries: 1, BackoffBase: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if totals, err := tc.ask(t, c); !errors.Is(err, errDesync) || totals != nil {
				t.Fatalf("answers %v, err %v; want no answer and a desync error", totals, err)
			}
			if c.Retries() != 1 || c.Reconnects() != 1 {
				t.Errorf("retries = %d, reconnects = %d; want 1 and 1", c.Retries(), c.Reconnects())
			}

			// Only the first connection miscounts: the retry on a fresh one
			// is answered by the server.
			c2, err := DialMuxOpts(peer(t, 1, tc.delta), DialOptions{
				Timeout: 2 * time.Second, MaxRetries: 1, BackoffBase: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			totals, err := tc.ask(t, c2)
			if err != nil || len(totals) == 0 {
				t.Fatalf("answers %v, err %v after a retry on a fresh connection", totals, err)
			}
			for i, total := range totals {
				if total < 50 || total > 70 {
					t.Errorf("answer %d: total %v, want ~60", i, total)
				}
			}
			if c2.Reconnects() != 1 {
				t.Errorf("reconnects = %d, want 1", c2.Reconnects())
			}
		})
	}
}

// TestMuxClientClose: queries after Close fail fast with net.ErrClosed.
func TestMuxClientClose(t *testing.T) {
	srv, _ := netFixture(t)
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Interval(0, 1, 2); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("query after Close: %v, want net.ErrClosed", err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestMuxServerShedsSingleAndBatch saturates the shed limit and checks
// both ops answer overloaded without executing, then recover.
func TestMuxServerShedsSingleAndBatch(t *testing.T) {
	srv, ts := netFixture(t)
	srv.inflight.Add(int64(srv.opts.ShedLimit)) // saturate
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{Timeout: time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated single query returned %v, want ErrOverloaded", err)
	}
	if _, err := c.Batch([]BatchQuery{{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated batch returned %v, want ErrOverloaded", err)
	}
	srv.inflight.Add(int64(-srv.opts.ShedLimit))
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("query after overload cleared: %v", err)
	}
	if srv.shed.Load() < 2 {
		t.Errorf("shed counter = %d, want >= 2", srv.shed.Load())
	}
}

// TestMuxServerDropsCorruptStream: bytes that are not a frame cost the
// connection that sent them and nothing else — counted as a bad request
// where a whole header arrived, dropped without a reply, every handler
// goroutine unwound, and the listener still answering a MuxClient.
func TestMuxServerDropsCorruptStream(t *testing.T) {
	srv, ts := netFixture(t)
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// stillServing: the dropped connection's handler is gone (Close would
	// wait for it forever otherwise) and a new client is answered.
	stillServing := func(t *testing.T) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			srv.mu.Lock()
			open := len(srv.conns)
			srv.mu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d handlers still running after their connections were dropped", open)
			}
			time.Sleep(time.Millisecond)
		}
		c, err := DialMux(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		counts, err := c.Interval(0, 1000, ts+1)
		if err != nil || sumCounts(counts) < 50 {
			t.Fatalf("query after the corrupt stream: %v, err %v", counts, err)
		}
	}

	// A valid query is answered; garbage where the next header should be
	// then drops the connection rather than desyncing it.
	t.Run("garbage after a frame", func(t *testing.T) {
		conn := dial(t)
		frame := appendRequest(nil, 1, 0, []BatchQuery{{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1}})
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_, payload := readReplyFrame(t, bufio.NewReader(conn), conn)
		id, _, rs, err := decodeResponse(payload)
		if err != nil || id != 1 || len(rs) != 1 || rs[0].Err != nil {
			t.Fatalf("reply id=%d results=%+v decode=%v", id, rs, err)
		}
		before := srv.badRequests.Load()
		if _, err := conn.Write([]byte("this is not a frame\n")); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, conn)
		if got := srv.badRequests.Load() - before; got != 1 {
			t.Errorf("corrupt frame counted as %d bad requests, want 1", got)
		}
		stillServing(t)
	})

	// A request of the retired newline-delimited JSON protocol is bytes
	// that are not a frame, like any other.
	t.Run("a JSON request line", func(t *testing.T) {
		conn := dial(t)
		before := srv.badRequests.Load()
		line := fmt.Sprintf(`{"id":1,"kind":"interval","port":0,"start":1000,"end":%d}`+"\n", ts+1)
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, conn)
		if got := srv.badRequests.Load() - before; got != 1 {
			t.Errorf("JSON line counted as %d bad requests, want 1", got)
		}
		stillServing(t)
	})

	// Less than a header, then gone: a peer that hung up, not a protocol
	// error — nothing to count, nothing left running.
	t.Run("three bytes then close", func(t *testing.T) {
		conn := dial(t)
		before := srv.badRequests.Load()
		if _, err := conn.Write([]byte(`{"i`)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		stillServing(t)
		if got := srv.badRequests.Load() - before; got != 0 {
			t.Errorf("a torn header counted as %d bad requests, want 0", got)
		}
	})

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close is waiting on a goroutine the corrupt streams left behind")
	}
}
