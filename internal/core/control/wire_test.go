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

func TestWireQueryFrameRoundTrip(t *testing.T) {
	queries := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: 2000},
		{Kind: IntervalQuery, Port: 7, Start: 0, End: 1},
		{Kind: OriginalQuery, Port: 3, Queue: 2, Start: 1500},
		{Kind: OriginalQuery},
	}
	for i, q := range queries {
		frame := appendQueryFrame(nil, uint64(i+1), q)
		op, payload := roundTripFrame(t, frame)
		if op != opQuery {
			t.Fatalf("op = %#x, want opQuery", op)
		}
		id, got, err := decodeQueryRequest(payload)
		if err != nil {
			t.Fatalf("decode query %d: %v", i, err)
		}
		if id != uint64(i+1) || got != q {
			t.Fatalf("query %d round-tripped to id=%d %+v, want id=%d %+v", i, id, got, i+1, q)
		}
	}
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

// stringReplyFrame is an ok opReply frame around appendStringCounts.
func stringReplyFrame(id uint64, counts map[string]float64) []byte {
	b, at := beginFrame(nil, opReply)
	b = appendUvarint(b, id)
	b = append(b, 0)
	b = appendStringCounts(b, counts)
	return endFrame(b, at)
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
		frame := appendReplyFrame(nil, 9, wireReply{Counts: counts})
		oracle := stringReplyFrame(9, sprintfCounts(counts))
		if len(frame) != len(oracle) || (len(counts) <= 1 && !bytes.Equal(frame, oracle)) {
			t.Fatalf("case %d: frame from flow.Counts is %d bytes %x, from the string map %d bytes %x",
				i, len(frame), frame[:min(len(frame), 80)], len(oracle), oracle[:min(len(oracle), 80)])
		}
		_, payload := roundTripFrame(t, frame)
		id, got, err := decodeReply(payload)
		if err != nil || id != 9 || got.Err != nil {
			t.Fatalf("case %d: decode id=%d err=%v reply err=%v", i, id, err, got.Err)
		}
		_, want, err := decodeReply(oracle[frameHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
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
		frame := stringReplyFrame(9, counts)
		op, payload := roundTripFrame(t, frame)
		if op != opReply {
			t.Fatalf("op = %#x, want opReply", op)
		}
		id, r, err := decodeReply(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
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
	frame := appendReplyFrame(nil, 3, wireReply{Error: "control: port 9 not activated"})
	_, payload := roundTripFrame(t, frame)
	id, r, err := decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || r.Err == nil || r.Err.Error() != "control: port 9 not activated" {
		t.Fatalf("got id=%d err=%v", id, r.Err)
	}

	// The overload sentinel survives the wire as the canonical value, so
	// the client's retry logic can match it with errors.Is.
	frame = appendReplyFrame(nil, 4, wireReply{Error: ErrOverloaded.Error()})
	_, payload = roundTripFrame(t, frame)
	_, r, err = decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("overload reply decoded to %v, want ErrOverloaded", r.Err)
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	qs := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1, End: 2},
		{Kind: OriginalQuery, Port: 1, Queue: 3, Start: 9},
	}
	frame := appendBatchFrame(nil, 77, qs)
	op, payload := roundTripFrame(t, frame)
	if op != opBatch {
		t.Fatalf("op = %#x, want opBatch", op)
	}
	id, got, err := decodeBatchRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || len(got) != 2 || got[0] != qs[0] || got[1] != qs[1] {
		t.Fatalf("batch round-tripped to id=%d %+v", id, got)
	}

	resps := []wireReply{
		{Counts: flow.Counts{fkey(7): 1.5}},
		{Error: "nope"},
	}
	frame = appendBatchReplyFrame(nil, 77, resps)
	op, payload = roundTripFrame(t, frame)
	if op != opBatchReply {
		t.Fatalf("op = %#x, want opBatchReply", op)
	}
	id, rs, err := decodeBatchReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || len(rs) != 2 {
		t.Fatalf("id=%d results=%d", id, len(rs))
	}
	if rs[0].Err != nil || len(rs[0].Counts) != 1 || rs[0].Counts[fkey(7).String()] != 1.5 {
		t.Fatalf("result 0 = %+v", rs[0])
	}
	if rs[1].Err == nil || rs[1].Err.Error() != "nope" || rs[1].Counts != nil {
		t.Fatalf("result 1 = %+v", rs[1])
	}
}

// TestWireTruncationNeverPanics feeds every proper prefix of valid frames
// through the decoders: each must fail cleanly, never panic or succeed.
func TestWireTruncationNeverPanics(t *testing.T) {
	frames := [][]byte{
		appendQueryFrame(nil, 123456, BatchQuery{Kind: IntervalQuery, Port: 5, Start: 1 << 40, End: 1<<40 + 9}),
		appendBatchFrame(nil, 7, []BatchQuery{{Kind: OriginalQuery, Port: 1, Queue: 1, Start: 3}}),
		appendReplyFrame(nil, 99, wireReply{Counts: flow.Counts{fkey(1): 2.5, fkey(2): 7}}),
		appendReplyFrame(nil, 99, wireReply{Error: "boom"}),
		appendBatchReplyFrame(nil, 42, []wireReply{{Counts: flow.Counts{fkey(1): 1}}, {Error: "e"}}),
	}
	for fi, frame := range frames {
		payload := frame[frameHeaderLen:]
		for cut := 0; cut < len(payload); cut++ {
			p := payload[:cut]
			if _, _, err := decodeQueryRequest(p); err == nil && frame[1] == opQuery && cut < len(payload) {
				t.Fatalf("frame %d: truncated query at %d decoded successfully", fi, cut)
			}
			decodeBatchRequest(p)
			decodeReply(p)
			decodeBatchReply(p)
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
	big := []byte{frameMagic, opReply, 0xFF, 0xFF, 0xFF, 0xFF}
	br = bufio.NewReader(bytes.NewReader(big))
	if _, _, err := readFrame(br, nil, maxFramePayload); !errors.Is(err, errFrameSize) {
		t.Fatalf("err = %v, want errFrameSize", err)
	}
}

// TestWireEncodeAllocs pins the zero-allocation property of the pooled
// encode paths: once a buffer has grown, encoding a reply or a request into
// it allocates nothing.
func TestWireEncodeAllocs(t *testing.T) {
	reply := wireReply{Counts: flow.Counts{fkey(1): 12.5, fkey(2): 60, flow.Zero: 1}}
	buf := make([]byte, 0, 1<<12)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendReplyFrame(buf[:0], 42, reply)
	}); n > 0 {
		t.Errorf("appendReplyFrame allocates %.1f/op, want 0", n)
	}
	qs := []BatchQuery{{Kind: IntervalQuery, Port: 1, Start: 5, End: 9}, {Kind: OriginalQuery, Start: 3}}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendBatchFrame(buf[:0], 7, qs)
	}); n > 0 {
		t.Errorf("appendBatchFrame allocates %.1f/op, want 0", n)
	}
}

// TestWireDifferentialJSONBinary drives a query stream through the wire
// (single and batch ops) and requires what arrives to be, bit for bit and
// error text for error text, the answer the System gives in process with its
// flow keys rendered by flow.Key.String — the codec adds and loses nothing.
// (The name is from when the reference was a second, JSON wire.)
func TestWireDifferentialJSONBinary(t *testing.T) {
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

	// The same stream as one batch frame.
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
