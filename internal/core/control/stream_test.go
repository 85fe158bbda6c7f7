package control

import (
	"errors"
	"testing"
	"time"

	"printqueue/internal/core/histstore"
)

// streamSystem builds a System with a durable history (the stream's
// replay source), feeds it 60 dequeues on port 0 between t=1010 and
// t=1600, and finalizes.
func streamSystem(t *testing.T) (*System, uint64) {
	t.Helper()
	cfg := testConfig(0)
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8+i%9))
	}
	sys.Finalize(ts + 1)
	return sys, ts
}

// appendResyncFrame encodes the opStreamResync marker that switches of
// older builds send after dropping records; this build only reads it.
func appendResyncFrame(b []byte, dropped uint64) []byte {
	b, start := beginFrame(b, opStreamResync)
	b = appendUvarint(b, dropped)
	return endFrame(b, start)
}

// serveStream puts a query server with the binary plane in front of sys.
func serveStream(t *testing.T, sys *System) string {
	t.Helper()
	qs := NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	srv, err := ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

func TestStreamFrameCodec(t *testing.T) {
	// Subscribe round trip.
	sub := appendSubscribeFrame(nil, 12345)
	if sub[0] != frameMagic || sub[1] != opSubscribe {
		t.Fatalf("subscribe frame header = % x", sub[:2])
	}
	since, err := decodeSubscribe(sub[frameHeaderLen:])
	if err != nil || since != 12345 {
		t.Fatalf("decodeSubscribe = %d, %v", since, err)
	}
	if _, err := decodeSubscribe(append(sub[frameHeaderLen:], 0)); !errors.Is(err, errTruncated) {
		t.Fatalf("trailing garbage accepted: %v", err)
	}

	// Checkpoint push round trip, payload aliasing.
	payload := []byte("encoded-record-bytes")
	frame := appendCheckpointFrame(nil, 7, 3, 2000, 1500, pushFlagSpecial|pushFlagReplay, payload)
	f, err := decodeCheckpointFrame(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 7 || f.Port != 3 || f.FreezeTime != 2000 || f.PrevFreeze != 1500 || !f.Special || !f.Replay {
		t.Fatalf("decoded frame %+v", f)
	}
	if string(f.Payload) != string(payload) {
		t.Fatalf("payload = %q", f.Payload)
	}
	if &f.Payload[0] != &frame[len(frame)-len(payload)] {
		t.Fatal("decoded payload does not alias the frame buffer")
	}
	if _, err := decodeCheckpointFrame(frame[frameHeaderLen : frameHeaderLen+2]); err == nil {
		t.Fatal("truncated checkpoint frame accepted")
	}

	// Resync round trip.
	rs := appendResyncFrame(nil, 42)
	dropped, err := decodeResync(rs[frameHeaderLen:])
	if err != nil || dropped != 42 {
		t.Fatalf("decodeResync = %d, %v", dropped, err)
	}
}

// TestStreamCodecZeroAlloc pins the streaming codec's hot path at zero
// allocations after warmup: the snapshotter-side frame encode reuses its
// buffer, and the mirror-side decode returns payload views.
func TestStreamCodecZeroAlloc(t *testing.T) {
	payload := make([]byte, 512)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendCheckpointFrame(buf[:0], 9, 1, 5000, 4000, pushFlagSpecial, payload)
	}); n > 0 {
		t.Errorf("appendCheckpointFrame allocates %.1f/op, want 0", n)
	}
	frame := appendCheckpointFrame(nil, 9, 1, 5000, 4000, pushFlagSpecial, payload)
	body := frame[frameHeaderLen:]
	if n := testing.AllocsPerRun(200, func() {
		if _, err := decodeCheckpointFrame(body); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("decodeCheckpointFrame allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendResyncFrame(buf[:0], 3)
	}); n > 0 {
		t.Errorf("appendResyncFrame allocates %.1f/op, want 0", n)
	}
}

// TestSubscribeReplayAndLive is the end-to-end stream contract: a
// subscriber sees the whole retained history replayed (flagged), then
// live retires as they happen, under one monotonic sequence, with
// metadata matching what the switch's own store indexed.
func TestSubscribeReplayAndLive(t *testing.T) {
	sys, ts := streamSystem(t)
	addr := serveStream(t, sys)

	st, err := DialCheckpoints(addr, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	stats, _ := sys.HistoryStats()
	if stats.Appended == 0 {
		t.Fatal("fixture appended no records")
	}
	var wantSeq uint64
	var lastFreeze uint64
	for wantSeq = 1; ; wantSeq++ {
		f, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != wantSeq {
			t.Fatalf("seq %d, want %d", f.Seq, wantSeq)
		}
		if !f.Replay {
			t.Fatalf("replayed frame %d not flagged Replay", f.Seq)
		}
		if f.Port != 0 || f.FreezeTime <= f.PrevFreeze || len(f.Payload) == 0 {
			t.Fatalf("bad frame metadata: %+v", f)
		}
		if f.FreezeTime <= lastFreeze {
			t.Fatalf("replay out of order: freeze %d after %d", f.FreezeTime, lastFreeze)
		}
		lastFreeze = f.FreezeTime
		if int64(wantSeq) == stats.Appended {
			break
		}
	}
	if lastFreeze != ts+1 {
		t.Fatalf("replay ended at freeze %d, want %d", lastFreeze, ts+1)
	}

	// Live tail: new dequeues retire new checkpoints that arrive unflagged.
	ts2 := ts + 100
	for i := 0; i < 60; i++ {
		ts2 += 10
		sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts2-40, ts2, 8))
	}
	sys.Finalize(ts2 + 1)
	deadline := time.After(5 * time.Second)
	got := make(chan CheckpointFrame, 1)
	go func() {
		f, err := st.Next()
		if err == nil {
			got <- f
		}
	}()
	select {
	case f := <-got:
		if f.Seq != wantSeq+1 {
			t.Fatalf("first live seq %d, want %d", f.Seq, wantSeq+1)
		}
		if f.Replay {
			t.Fatal("live frame flagged as replay")
		}
		if f.FreezeTime <= lastFreeze {
			t.Fatalf("live frame freeze %d not past replay end %d", f.FreezeTime, lastFreeze)
		}
	case <-deadline:
		t.Fatal("no live frame within deadline")
	}
}

// TestSubscribeSince: a subscription with since > 0 replays only records
// strictly newer than the watermark.
func TestSubscribeSince(t *testing.T) {
	sys, ts := streamSystem(t)
	addr := serveStream(t, sys)
	mid := (1000 + ts) / 2

	st, err := DialCheckpoints(addr, mid, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.FreezeTime <= mid {
		t.Fatalf("replayed freeze %d not past since %d", f.FreezeTime, mid)
	}
	if f.Seq != 1 {
		t.Fatalf("since-replay restarts sequence at %d, want 1", f.Seq)
	}
}

// TestStreamBackpressureNeverStallsRetire: a subscriber that reads nothing
// while thousands of checkpoints retire neither stalls the retire path nor
// loses a record. The subscription follows the log, so once it reads, it
// gets every record the switch appended, each port's chained by
// PrevFreeze, under one sequence, with no resync.
func TestStreamBackpressureNeverStallsRetire(t *testing.T) {
	sys, ts := streamSystem(t)
	before := sys.stats.snapshotStalls.Load()
	qs := NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	// No write deadline: the subscriber may stay silent for as long as the
	// feed takes, as a collector in a long pause would.
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{WriteTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	st, err := DialCheckpoints(srv.Addr().String(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	start := time.Now()
	ts2 := ts + 100
	for chunk := 0; chunk < 200; chunk++ {
		for i := 0; i < 5000; i++ {
			ts2 += 10
			sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts2-40, ts2, 8))
		}
		if hs, _ := sys.HistoryStats(); hs.Appended >= 2000 {
			break
		}
	}
	sys.Finalize(ts2 + 1)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("feed with a stalled subscriber took %v; the stream blocked the retire path", elapsed)
	}
	if got := sys.stats.snapshotStalls.Load(); got != before {
		t.Fatalf("snapshot stalls rose %d -> %d under a stalled subscriber", before, got)
	}
	stats, _ := sys.HistoryStats()
	if stats.Appended < 2000 {
		t.Fatalf("the feed retired %d checkpoints, want thousands", stats.Appended)
	}

	var prev uint64
	for n := int64(1); n <= stats.Appended; n++ {
		f, err := st.Next()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", n, stats.Appended, err)
		}
		if f.Seq != uint64(n) || n > 1 && f.PrevFreeze != prev || f.FreezeTime <= f.PrevFreeze {
			t.Fatalf("frame %d: seq %d covers (%d, %d], want seq %d chained to freeze %d", n, f.Seq, f.PrevFreeze, f.FreezeTime, n, prev)
		}
		prev = f.FreezeTime
	}
	if prev != ts2+1 {
		t.Fatalf("the stream ended at freeze %d, want the final one %d", prev, ts2+1)
	}
}

// TestSubscribeWithoutHistoryRefused: a subscription follows the switch's
// log, so a switch without one refuses it and counts it as a bad request.
// It sends no frame and leaves the connection to the idle deadline, not
// closing it at once: a collector of an older build would redial at once.
func TestSubscribeWithoutHistoryRefused(t *testing.T) {
	sys, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	qs := NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	const idle = 100 * time.Millisecond
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	start := time.Now()
	st, err := DialCheckpoints(srv.Addr().String(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if f, err := st.Next(); err == nil || errors.Is(err, ErrStreamResync) {
		t.Fatalf("Next = %+v, %v; want the connection dropped", f, err)
	}
	if held := time.Since(start); held < idle {
		t.Fatalf("the refused subscription was dropped after %v, want it held for the %v idle deadline", held, idle)
	}
	if n := sys.Telemetry().Counter("printqueue_netserver_bad_requests_total", "").Load(); n != 1 {
		t.Fatalf("bad requests = %d, want the refused subscription counted once", n)
	}
}

// TestSubscribeStalledConnDoesNotBlockServer: a real subscriber that
// stops reading must not wedge the server — queries on other connections
// keep answering and the switch keeps retiring.
func TestSubscribeStalledConnDoesNotBlockServer(t *testing.T) {
	sys, ts := streamSystem(t)
	addr := serveStream(t, sys)

	st, err := DialCheckpoints(addr, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() // never reads: the TCP window absorbs the feed, then the log holds it

	ts2 := ts + 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			ts2 += 10
			sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts2-40, ts2, 8))
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("feed blocked behind a stalled subscriber connection")
	}

	// The query plane on a separate connection still answers.
	cl, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	counts, err := cl.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("query returned no counts while a subscriber was stalled")
	}
}

// TestSubscribeSecondSubscribeRejected: one subscription per connection;
// a second opSubscribe poisons the stream.
func TestSubscribeSecondSubscribeRejected(t *testing.T) {
	sys, _ := streamSystem(t)
	addr := serveStream(t, sys)
	st, err := DialCheckpoints(addr, 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	// Write a second subscribe frame on the raw connection.
	if _, err := st.conn.Write(appendSubscribeFrame(nil, 0)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := st.Next(); err != nil {
			if errors.Is(err, ErrStreamResync) {
				t.Fatalf("stream gapped before the teardown: %v", err)
			}
			return // connection torn down, as required
		}
	}
}

// TestSubscribeToEmptyHistory is the regression test for the defect the
// benchmark's set-up found (bench/README "Defects found" 1): subscribing to
// a switch whose history's active segment holds no record — a fresh System,
// or one reopened on a log whose segments are all sealed — sent ReplaySince
// looking for the footer of an unsealed segment and killed the switch
// (makeslice: len out of range). The subscriber must instead get the
// records there are, none or all, and then the live tail.
func TestSubscribeToEmptyHistory(t *testing.T) {
	cfg := testConfig(0)
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	feed := func(sys *System, from uint64) uint64 {
		ts := from
		for i := 0; i < 60; i++ {
			ts += 10
			sys.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
		}
		sys.Finalize(ts + 1)
		return ts + 1
	}
	// next returns the stream's next frame, failing the test if the switch
	// does not push one in time.
	next := func(st *CheckpointStream) CheckpointFrame {
		t.Helper()
		type result struct {
			f   CheckpointFrame
			err error
		}
		got := make(chan result, 1)
		go func() {
			f, err := st.Next()
			got <- result{f, err}
		}()
		select {
		case r := <-got:
			if r.err != nil {
				t.Fatalf("stream broke: %v", r.err)
			}
			return r.f
		case <-time.After(5 * time.Second):
			t.Fatal("no frame within deadline")
			return CheckpointFrame{}
		}
	}

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DialCheckpoints(serveStream(t, fresh), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end := feed(fresh, 1000)
	// Replayed or live, whichever side of the feed the subscription landed.
	if f := next(st); f.Seq != 1 || f.FreezeTime > end {
		t.Fatalf("fresh switch: first frame %+v, want seq 1 up to freeze %d", f, end)
	}
	st.Close()
	stats, _ := fresh.HistoryStats()
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened: every segment sealed, the new active one empty.
	reborn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	st, err = DialCheckpoints(serveStream(t, reborn), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var last uint64
	for i := int64(0); i < stats.Appended; i++ {
		f := next(st)
		if !f.Replay || f.FreezeTime <= last {
			t.Fatalf("reopened switch: frame %d = %+v, want a replayed one past freeze %d", i, f, last)
		}
		last = f.FreezeTime
	}
	if last != end {
		t.Fatalf("replay ended at freeze %d, want %d", last, end)
	}
	feed(reborn, end+100)
	if f := next(st); f.Replay || f.FreezeTime <= end {
		t.Fatalf("reopened switch: frame after the replay %+v, want a live one past %d", f, end)
	}
}
