package control

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/flow"
	"printqueue/internal/tracing"
)

// roundTripFrame encodes with enc, then reads the frame back through a
// bufio.Reader the way a peer would.
func roundTripFrame(t *testing.T, frame []byte) (op byte, payload []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	op, payload, err := readFrame(br, nil, maxFramePayload)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return op, payload
}

// appendStringCounts is the reply encoder as it was while the server built a
// map[string]float64 per answer and copied the strings out again. It is the
// oracle for the bytes a reply puts on the wire, and it feeds the decoder
// keys no flow renders to.
func appendStringCounts(b []byte, counts map[string]float64) []byte {
	b = appendUvarint(b, uint64(len(counts)))
	for k, v := range counts {
		b = appendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = appendCount(b, v)
	}
	return b
}

// stringReplyFrame is an untraced reply frame of one ok body around
// appendStringCounts.
func stringReplyFrame(id uint64, counts map[string]float64) []byte {
	b, at := beginFrame(nil, opResponse)
	b = appendUvarint(b, id)
	b = appendSpans(b, nil)
	b = appendUvarint(b, 1)
	b = append(b, 0)
	b = appendStringCounts(b, counts)
	return endFrame(b, at)
}

// replyFrame is a reply frame answering a request of one query.
func replyFrame(id uint64, resp wireReply) []byte {
	return appendResponse(nil, id, nil, []wireReply{resp})
}

// decodeOne reads a reply frame back as a peer would and requires it to
// answer exactly one query.
func decodeOne(t *testing.T, frame []byte) (uint64, BatchResult) {
	t.Helper()
	op, payload := roundTripFrame(t, frame)
	if op != opResponse {
		t.Fatalf("op = %#x, want opResponse", op)
	}
	id, spans, rs, err := decodeResponse(payload)
	if err != nil || len(spans) != 0 || len(rs) != 1 {
		t.Fatalf("decode: %d spans, %d results, err %v; want 0 spans, 1 result", len(spans), len(rs), err)
	}
	return id, rs[0]
}

// sprintfKey is the fmt rendering flow.Key.String had when those strings
// were built: what every deployed client parses.
func sprintfKey(k flow.Key) string {
	if k.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src(), k.SrcPort, k.Dst(), k.DstPort, k.Proto)
}

func sprintfCounts(c flow.Counts) map[string]float64 {
	m := make(map[string]float64, len(c))
	for k, n := range c {
		m[sprintfKey(k)] = n
	}
	return m
}

// TestWireReplyFromFlowCounts: a reply encoded straight from flow.Counts
// decodes to the map the string-map encoding of the same answer did, and is
// as many bytes; with one flow (no map order to differ by) the frames are
// byte-identical.
func TestWireReplyFromFlowCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	big := make(flow.Counts)
	for len(big) < 3000 {
		k := flow.Key{
			SrcIP: [4]byte{byte(rng.IntN(256)), byte(rng.IntN(256)), 0, byte(rng.IntN(256))}, DstIP: [4]byte{10, 0, 1, 1},
			SrcPort: uint16(rng.IntN(1 << 16)), DstPort: 80, Proto: flow.Proto(rng.IntN(256)),
		}
		big[k] = float64(rng.IntN(5000)) / 8
	}
	cases := []flow.Counts{
		nil,
		{},
		{fkey(1): 12.5},
		{flow.Zero: 3},
		{fkey(1): 0, fkey(2): 1, fkey(3): 1e9, fkey(4): 0.1, fkey(5): math.MaxFloat64, fkey(6): -3.25},
		{{SrcIP: [4]byte{255, 255, 255, 255}, DstIP: [4]byte{255, 255, 255, 255}, SrcPort: 65535, DstPort: 65535, Proto: 255}: 1},
		big,
	}
	for i, counts := range cases {
		frame := replyFrame(9, wireReply{Counts: counts})
		oracle := stringReplyFrame(9, sprintfCounts(counts))
		if len(frame) != len(oracle) || (len(counts) <= 1 && !bytes.Equal(frame, oracle)) {
			t.Fatalf("case %d: frame from flow.Counts is %d bytes %x, from the string map %d bytes %x",
				i, len(frame), frame[:min(len(frame), 80)], len(oracle), oracle[:min(len(oracle), 80)])
		}
		id, got := decodeOne(t, frame)
		if id != 9 || got.Err != nil {
			t.Fatalf("case %d: decode id=%d reply err=%v", i, id, got.Err)
		}
		_, want := decodeOne(t, oracle)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("case %d: decoded %v, string-map encoding decoded %v", i, got.Counts, want.Counts)
		}
	}
}

func TestWireCountsRoundTripBitEqual(t *testing.T) {
	cases := []map[string]float64{
		nil,
		{},
		{"10.0.0.1:80>10.0.0.2:90/tcp": 12.5},
		{"a": 0, "b": 1, "c": 60, "d": 1e9, "e": 0.1, "f": math.MaxFloat64, "g": -3.25},
		{"": 42}, // empty key survives
		{"flow\twith\"specials\\": 7},
	}
	for i, counts := range cases {
		id, r := decodeOne(t, stringReplyFrame(9, counts))
		if id != 9 || r.Err != nil {
			t.Fatalf("case %d: id=%d err=%v", i, id, r.Err)
		}
		if len(r.Counts) != len(counts) {
			t.Fatalf("case %d: %d keys, want %d", i, len(r.Counts), len(counts))
		}
		for k, v := range counts {
			got, ok := r.Counts[k]
			if !ok {
				t.Fatalf("case %d: key %q lost", i, k)
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("case %d: key %q: bits %#x, want %#x", i, k, math.Float64bits(got), math.Float64bits(v))
			}
		}
	}
}

func TestWireErrorReplyRoundTrip(t *testing.T) {
	id, r := decodeOne(t, replyFrame(3, wireReply{Error: "control: port 9 not activated"}))
	if id != 3 || r.Err == nil || r.Err.Error() != "control: port 9 not activated" || r.Counts != nil {
		t.Fatalf("got id=%d %+v", id, r)
	}

	// The overload sentinel survives the wire as the canonical value, so
	// the client's retry logic can match it with errors.Is.
	if _, r := decodeOne(t, replyFrame(4, wireReply{Error: ErrOverloaded.Error()})); !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("overload reply decoded to %v, want ErrOverloaded", r.Err)
	}
}

// TestWireBatchRoundTrip: a request of one query and one of many, traced
// and not, decode to what was encoded, and so does a reply of one body
// and of many, with and without server spans.
func TestWireBatchRoundTrip(t *testing.T) {
	for i, req := range []struct {
		id, traceID uint64
		qs          []BatchQuery
	}{
		{1, 0, []BatchQuery{{Kind: IntervalQuery, Port: 0, Start: 1000, End: 2000}}},
		{2, 0, []BatchQuery{{Kind: IntervalQuery, Port: 7, Start: 0, End: 1}}},
		{3, 0, []BatchQuery{{Kind: OriginalQuery, Port: 3, Queue: 2, Start: 1500}}},
		{4, 0, []BatchQuery{{Kind: OriginalQuery}}},
		{77, 0, []BatchQuery{{Kind: IntervalQuery, Port: 0, Start: 1, End: 2}, {Kind: OriginalQuery, Port: 1, Queue: 3, Start: 9}}},
		{5, 1<<63 + 5, []BatchQuery{{Kind: IntervalQuery, Port: 5, Start: 1 << 40, End: 1<<40 + 9}}},
		{1 << 40, 1, []BatchQuery{{Kind: OriginalQuery, Port: 1, Start: 3}, {Kind: IntervalQuery, Port: 2, Start: 4, End: 8}}},
	} {
		op, payload := roundTripFrame(t, appendRequest(nil, req.id, req.traceID, req.qs))
		if op != opRequest {
			t.Fatalf("request %d: op = %#x, want opRequest", i, op)
		}
		id, traceID, qs, err := decodeRequest(payload)
		if err != nil || id != req.id || traceID != req.traceID || !reflect.DeepEqual(qs, req.qs) {
			t.Fatalf("request %d round-tripped to id=%d trace=%d %+v (err %v), want id=%d trace=%d %+v",
				i, id, traceID, qs, err, req.id, req.traceID, req.qs)
		}
	}

	spans := []tracing.Span{
		{Name: "server.dispatch", Src: tracing.SrcServer, Start: 10, Dur: 5},
		{Name: "server.execute", Src: tracing.SrcServer, Start: 20, Dur: 300},
	}
	for _, withSpans := range [][]tracing.Span{nil, spans} {
		resps := []wireReply{
			{Counts: flow.Counts{fkey(7): 1.5}},
			{Error: "nope"},
		}
		op, payload := roundTripFrame(t, appendResponse(nil, 77, withSpans, resps))
		if op != opResponse {
			t.Fatalf("op = %#x, want opResponse", op)
		}
		id, gotSpans, rs, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if id != 77 || len(rs) != 2 || len(gotSpans) != len(withSpans) || (len(withSpans) > 0 && !reflect.DeepEqual(gotSpans, withSpans)) {
			t.Fatalf("id=%d results=%d spans=%+v, want 77, 2, %+v", id, len(rs), gotSpans, withSpans)
		}
		if rs[0].Err != nil || len(rs[0].Counts) != 1 || rs[0].Counts[fkey(7).String()] != 1.5 {
			t.Fatalf("result 0 = %+v", rs[0])
		}
		if rs[1].Err == nil || rs[1].Err.Error() != "nope" || rs[1].Counts != nil {
			t.Fatalf("result 1 = %+v", rs[1])
		}
	}
}

// TestWireTruncationNeverPanics feeds every proper prefix of valid frames
// through the decoders: each must fail cleanly, never panic or succeed.
func TestWireTruncationNeverPanics(t *testing.T) {
	spans := []tracing.Span{{Name: "server.execute", Start: 1, Dur: 2}}
	frames := [][]byte{
		appendRequest(nil, 123456, 0, []BatchQuery{{Kind: IntervalQuery, Port: 5, Start: 1 << 40, End: 1<<40 + 9}}),
		appendRequest(nil, 7, 1<<50, []BatchQuery{{Kind: OriginalQuery, Port: 1, Queue: 1, Start: 3}, {Kind: IntervalQuery, End: 1}}),
		replyFrame(99, wireReply{Counts: flow.Counts{fkey(1): 2.5, fkey(2): 7}}),
		replyFrame(99, wireReply{Error: "boom"}),
		appendResponse(nil, 42, spans, []wireReply{{Counts: flow.Counts{fkey(1): 1}}, {Error: "e"}}),
	}
	for fi, frame := range frames {
		payload := frame[frameHeaderLen:]
		for cut := 0; cut < len(payload); cut++ {
			p := payload[:cut]
			_, _, _, reqErr := decodeRequest(p)
			_, _, _, respErr := decodeResponse(p)
			if (frame[1] == opRequest && reqErr == nil) || (frame[1] == opResponse && respErr == nil) {
				t.Fatalf("frame %d: truncated at %d of %d bytes decoded successfully", fi, cut, len(payload))
			}
		}
	}
}

// TestWireBadMagic proves a stream that has lost framing is detected
// immediately rather than misparsed.
func TestWireBadMagic(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader([]byte{0x7B, 0x01, 0, 0, 0, 0}))
	if _, _, err := readFrame(br, nil, maxFramePayload); !errors.Is(err, errBadMagic) {
		t.Fatalf("err = %v, want errBadMagic", err)
	}
	// Oversized length field: rejected before allocating.
	big := []byte{frameMagic, opResponse, 0xFF, 0xFF, 0xFF, 0xFF}
	br = bufio.NewReader(bytes.NewReader(big))
	if _, _, err := readFrame(br, nil, maxFramePayload); !errors.Is(err, errFrameSize) {
		t.Fatalf("err = %v, want errFrameSize", err)
	}
}

// TestWireEncodeAllocs pins the zero-allocation property of the pooled
// encode paths: once a buffer has grown, encoding a reply or a request into
// it allocates nothing.
func TestWireEncodeAllocs(t *testing.T) {
	resps := []wireReply{{Counts: flow.Counts{fkey(1): 12.5, fkey(2): 60, flow.Zero: 1}}}
	buf := make([]byte, 0, 1<<12)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendResponse(buf[:0], 42, nil, resps)
	}); n > 0 {
		t.Errorf("appendResponse allocates %.1f/op, want 0", n)
	}
	qs := []BatchQuery{{Kind: IntervalQuery, Port: 1, Start: 5, End: 9}, {Kind: OriginalQuery, Start: 3}}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendRequest(buf[:0], 7, 0, qs)
	}); n > 0 {
		t.Errorf("appendRequest allocates %.1f/op, want 0", n)
	}
}

// TestWireDifferential drives a query stream through the wire (requests of
// one query and one of all of them) and requires what arrives to be, bit
// for bit and error text for error text, the answer the System gives in
// process with its flow keys rendered by flow.Key.String — the codec adds
// and loses nothing.
func TestWireDifferential(t *testing.T) {
	srv, ts := netFixture(t)
	bc, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	runWireDifferential(t, srv.qs.sys, ts, bc)
}

// runWireDifferential holds bc's answers to sys's own (also reused with
// tracing enabled).
func runWireDifferential(t *testing.T, sys *System, ts uint64, bc *MuxClient) {
	t.Helper()
	stream := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},       // full trace
		{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200}, // empty
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts},            // original culprits
		{Kind: IntervalQuery, Port: 9, Start: 0, End: 1},               // unknown port
		{Kind: IntervalQuery, Port: 0, Start: 5, End: 5},               // empty interval error
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: 10},            // quiet instant
	}
	// inProcess is the reference: no worker pool, no frames.
	inProcess := func(q BatchQuery) (flow.Counts, error) {
		if q.Kind == IntervalQuery {
			return sys.QueryInterval(q.Port, q.Start, q.End)
		}
		culprits, err := sys.OriginalLevels(q.Port, q.Queue, q.Start)
		return qmonitor.FlowCounts(culprits), err
	}
	same := func(what string, i int, want flow.Counts, wantErr error, got map[string]float64, gotErr error) {
		t.Helper()
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s %d: in-process err %v, wire err %v", what, i, wantErr, gotErr)
			}
			return
		}
		if got == nil {
			t.Fatalf("%s %d: an answered query came back as a nil map", what, i)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %d: in-process %d flows, wire %d flows", what, i, len(want), len(got))
		}
		for k, wv := range want {
			gv, ok := got[k.String()]
			if !ok {
				t.Fatalf("%s %d: wire lost flow %v", what, i, k)
			}
			if math.Float64bits(wv) != math.Float64bits(gv) {
				t.Fatalf("%s %d flow %v: in-process bits %#x, wire bits %#x", what, i, k, math.Float64bits(wv), math.Float64bits(gv))
			}
		}
	}

	var answered int
	for i, q := range stream {
		want, wantErr := inProcess(q)
		var got map[string]float64
		var gotErr error
		if q.Kind == IntervalQuery {
			got, gotErr = bc.Interval(q.Port, q.Start, q.End)
		} else {
			got, gotErr = bc.Original(q.Port, q.Queue, q.Start)
		}
		same("query", i, want, wantErr, got, gotErr)
		if wantErr == nil && len(want) > 0 {
			answered++
		}
	}
	if answered < 2 {
		t.Fatalf("only %d queries of the stream had flows to compare", answered)
	}

	// The same stream as one request.
	batch, err := bc.Batch(stream)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(stream) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(stream))
	}
	for i, r := range batch {
		want, wantErr := inProcess(stream[i])
		same("batch", i, want, wantErr, r.Counts, r.Err)
	}
}
