package control

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// netFixture builds a populated system with a running query + net server.
func netFixture(t *testing.T) (*NetServer, uint64) {
	t.Helper()
	cfg := testConfig(0)
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	qs := NewQueryServer(s)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	srv, err := ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// readReplyFrame reads one frame off a raw connection, as a peer that is not
// MuxClient would.
func readReplyFrame(t *testing.T, br *bufio.Reader, conn net.Conn) (op byte, payload []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, payload, err := readFrame(br, nil, maxFramePayload)
	if err != nil {
		t.Fatalf("no reply frame: %v", err)
	}
	return op, payload
}

// expectDropped requires the server to have closed conn without writing
// anything to it.
func expectDropped(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read %d bytes, err %v; want the connection closed without a reply", n, err)
	}
}

// TestNetServerRoundTrip speaks raw frames to the server, several in flight
// at once under ids no client would pick: every reply echoes its request's
// id verbatim, whatever order the replies complete in, and the frame and
// request counters account for exactly what crossed the wire.
func TestNetServerRoundTrip(t *testing.T) {
	srv, ts := netFixture(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const fullID, origID, emptyID, badPortID, badIntervalID = 7, 3, 1 << 40, 900, 2
	var sent []byte
	for _, req := range []struct {
		id uint64
		q  BatchQuery
	}{
		{fullID, BatchQuery{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1}},
		{origID, BatchQuery{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts}},
		{emptyID, BatchQuery{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200}},
		{badPortID, BatchQuery{Kind: IntervalQuery, Port: 9, Start: 0, End: 1}},
		{badIntervalID, BatchQuery{Kind: IntervalQuery, Port: 0, Start: 5, End: 5}},
	} {
		sent = appendRequest(sent, req.id, 0, []BatchQuery{req.q})
	}
	if _, err := conn.Write(sent); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	replies := make(map[uint64]BatchResult)
	var received int
	for len(replies) < 5 {
		op, payload := readReplyFrame(t, br, conn)
		received += frameHeaderLen + len(payload)
		id, spans, rs, err := decodeResponse(payload)
		if op != opResponse || err != nil || len(spans) != 0 || len(rs) != 1 {
			t.Fatalf("reply op %#x, %d spans, %d results, decode %v", op, len(spans), len(rs), err)
		}
		if _, dup := replies[id]; dup {
			t.Fatalf("two replies for id %d", id)
		}
		replies[id] = rs[0]
	}

	if r := replies[fullID]; r.Err != nil || sumCounts(r.Counts) < 50 || sumCounts(r.Counts) > 70 {
		t.Fatalf("interval reply %+v, want ~60 packets", r)
	}
	if r := replies[origID]; r.Err != nil || len(r.Counts) == 0 {
		t.Fatalf("original reply %+v, want culprits", r)
	}
	// An interval with no traffic comes back as a non-nil empty map, so
	// callers can distinguish "no culprits" from a failed query.
	if r := replies[emptyID]; r.Err != nil || r.Counts == nil || len(r.Counts) != 0 {
		t.Fatalf("empty-interval reply %+v, want a non-nil empty map", r)
	}
	// Errors travel back as errors.
	if r := replies[badPortID]; r.Err == nil || r.Err.Error() != "control: port 9 not activated" {
		t.Fatalf("unknown-port reply %+v", r)
	}
	if r := replies[badIntervalID]; r.Err == nil {
		t.Fatal("empty interval [5,5) succeeded")
	}

	for name, c := range map[string]struct{ got, want int64 }{
		"connections": {srv.connections.Load(), 1},
		"requests":    {srv.requests.Load(), 5},
		"frames rx":   {srv.framesRx.Load(), 5},
		"bytes rx":    {srv.bytesRx.Load(), int64(len(sent))},
		"bad":         {srv.badRequests.Load(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", name, c.got, c.want)
		}
	}
	// The writer counts a frame after writing it, so the last reply can be
	// read here a moment before it is counted.
	deadline := time.Now().Add(2 * time.Second)
	for srv.framesTx.Load() != 5 || srv.bytesTx.Load() != int64(received) {
		if time.Now().After(deadline) {
			t.Fatalf("frames tx = %d (%d bytes), want 5 (%d bytes)", srv.framesTx.Load(), srv.bytesTx.Load(), received)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetServerMalformedInput sends frames that are framed but wrong. A
// stream that failed to decode once cannot be trusted again, so each costs
// its connection: counted as one bad request, closed without a reply — and
// the listener goes on answering.
func TestNetServerMalformedInput(t *testing.T) {
	srv, ts := netFixture(t)
	frame := func(op byte, payload ...byte) []byte {
		b, at := beginFrame(nil, op)
		return endFrame(append(b, payload...), at)
	}
	body := appendQueryBody(nil, BatchQuery{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1})
	// request is an untraced request payload (id 1) declaring n queries.
	request := func(n byte, rest ...byte) []byte { return frame(opRequest, append([]byte{1, 0, n}, rest...)...) }
	oversize := binary.BigEndian.AppendUint32([]byte{frameMagic, opRequest}, maxFramePayload+1)
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"unknown op", frame(0x7F)},
		{"a reply op sent to the server", appendResponse(nil, 1, nil, []wireReply{{}})},
		{"a request of no query", request(0)},
		{"query cut short", request(1, byte(IntervalQuery), 0)},
		{"unknown query kind", request(1, 9, 0, 0, 0, 0)},
		{"bytes after the query", request(1, append(body, 0)...)},
		{"request declaring more queries than it holds", request(3, body...)},
		{"length beyond the frame limit", oversize},
	}
	// The ops of the earlier layout (single query, batch, and their traced
	// twins, then the four replies) are unknown ops now, each sent with the
	// payload it used to carry: an id, then one query body.
	for _, op := range []byte{0x01, 0x02, 0x11, 0x12, 0x81, 0x82, 0x91, 0x92} {
		cases = append(cases, struct {
			name  string
			bytes []byte
		}{fmt.Sprintf("retired op %#x", op), frame(op, append([]byte{1}, body...)...)})
	}
	for _, tc := range cases {
		before := srv.badRequests.Load()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatal(err)
		}
		expectDropped(t, conn)
		conn.Close()
		if got := srv.badRequests.Load() - before; got != 1 {
			t.Errorf("%s: counted as %d bad requests, want 1", tc.name, got)
		}
	}
	if got := srv.requests.Load(); got != 0 {
		t.Errorf("malformed frames counted as %d requests", got)
	}
	c, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatalf("query after the malformed connections: %v", err)
	}
}

// TestNetServerConcurrentClients: eight clients, a connection each.
func TestNetServerConcurrentClients(t *testing.T) {
	srv, ts := netFixture(t)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := DialMux(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < 50; i++ {
				if _, err := client.Interval(0, 1000, ts+1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := srv.connections.Load(); got != 8 {
		t.Errorf("connections = %d, want 8", got)
	}
	if got := srv.requests.Load(); got != 8*50 {
		t.Errorf("requests = %d, want %d", got, 8*50)
	}
}

// TestNetServerClose: Close drops open connections and is idempotent; a
// client that was connected fails its next query instead of hanging.
func TestNetServerClose(t *testing.T) {
	srv, ts := netFixture(t)
	addr := srv.Addr().String()
	c, err := DialMuxOpts(addr, DialOptions{Timeout: time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Interval(0, 1000, ts+1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := c.Interval(0, 1000, ts+1); err == nil {
		// Another listener may have grabbed the port between Close and the
		// client's redial; it would not speak this protocol, though.
		t.Fatal("query answered after the server closed")
	}
}
