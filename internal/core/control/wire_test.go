package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
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

// TestNetServerJSONLineUnchanged: the v1 line protocol's reply to a query is
// byte-equal, modulo key order, to the line the string-map server wrote.
func TestNetServerJSONLineUnchanged(t *testing.T) {
	srv, ts := netFixture(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	sys := srv.qs.sys
	interval, err := sys.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	culprits, err := sys.QueryOriginal(0, 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	original := qmonitor.FlowCounts(culprits)
	for i, tc := range []struct {
		req  string
		want NetResponse
	}{
		{fmt.Sprintf(`{"id":1,"kind":"interval","port":0,"start":1000,"end":%d}`, ts+1), NetResponse{ID: 1, Counts: sprintfCounts(interval)}},
		{fmt.Sprintf(`{"id":2,"kind":"original","port":0,"at":%d}`, ts), NetResponse{ID: 2, Counts: sprintfCounts(original)}},
		{fmt.Sprintf(`{"id":3,"kind":"interval","port":0,"start":%d,"end":%d}`, ts+100, ts+200), NetResponse{ID: 3}},
		{`{"id":4,"kind":"interval","port":9,"start":0,"end":1}`, NetResponse{ID: 4, Error: "control: port 9 not activated"}},
	} {
		if _, err := fmt.Fprintln(conn, tc.req); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		// Raw messages keep every value's bytes; only the order of the
		// counts object's members is forgotten.
		type rawLine struct {
			ID     json.RawMessage            `json:"id"`
			Counts map[string]json.RawMessage `json:"counts"`
			Error  json.RawMessage            `json:"error"`
		}
		var got, want rawLine
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		wantLine := appendJSONResponse(nil, tc.want)
		if err := json.Unmarshal(wantLine, &want); err != nil {
			t.Fatal(err)
		}
		if len(line) != len(wantLine)+1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d: server wrote %q, the string-map server wrote %q", i, line, wantLine)
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

// TestWireJSONAppendParity checks the hand-rolled pooled JSON encoders
// against encoding/json: every response/request form must decode to the
// same value the marshal-based path produced.
func TestWireJSONAppendParity(t *testing.T) {
	resps := []NetResponse{
		{},
		{ID: 1},
		{ID: 2, Counts: map[string]float64{"10.0.0.1:80>10.0.0.2:90/tcp": 12.5}},
		{ID: 3, Counts: map[string]float64{"a": 1e21, "b": 0.30000000000000004}},
		{Error: "bad request: line exceeds 65536 bytes"},
		{ID: 4, Error: "with \"quotes\" and \\slashes\\ and \x01 control"},
	}
	for i, resp := range resps {
		got := appendJSONResponse(nil, resp)
		var back NetResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("resp %d: hand-rolled output %q undecodable: %v", i, got, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var wantBack NetResponse
		if err := json.Unmarshal(want, &wantBack); err != nil {
			t.Fatal(err)
		}
		if back.ID != wantBack.ID || back.Error != wantBack.Error || len(back.Counts) != len(wantBack.Counts) {
			t.Fatalf("resp %d: %q decodes to %+v, json.Marshal %q to %+v", i, got, back, want, wantBack)
		}
		for k, v := range wantBack.Counts {
			if math.Float64bits(back.Counts[k]) != math.Float64bits(v) {
				t.Fatalf("resp %d key %q: %v != %v (not bit-equal)", i, k, back.Counts[k], v)
			}
		}
	}

	reqs := []NetRequest{
		{Kind: "interval", Port: 0, Start: 1000, End: 2000},
		{ID: 9, Kind: "original", Port: 3, Queue: 1, At: 777},
		{ID: 1, Kind: "interval", Port: 2, Start: 0, End: 1},
	}
	for i, req := range reqs {
		got := appendJSONRequest(nil, req)
		var back NetRequest
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("req %d: %q undecodable: %v", i, got, err)
		}
		if back != req {
			t.Fatalf("req %d: %q decodes to %+v, want %+v", i, got, back, req)
		}
	}
}

// TestWireEncodeAllocs pins the zero-allocation property of the pooled
// encode paths: once a buffer has grown, encoding a reply (binary or JSON)
// into it allocates nothing — the satellite requirement that responses
// stop paying json.Marshal + fresh slices.
func TestWireEncodeAllocs(t *testing.T) {
	resp := NetResponse{ID: 42, Counts: map[string]float64{
		"10.0.0.1:80>10.0.0.2:90/tcp": 12.5,
		"10.0.0.3:81>10.0.0.4:91/udp": 60,
	}}
	reply := wireReply{Counts: flow.Counts{fkey(1): 12.5, fkey(2): 60, flow.Zero: 1}}
	buf := make([]byte, 0, 1<<12)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendReplyFrame(buf[:0], 42, reply)
	}); n > 0 {
		t.Errorf("appendReplyFrame allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendJSONResponse(buf[:0], resp)
	}); n > 0 {
		t.Errorf("appendJSONResponse allocates %.1f/op, want 0", n)
	}
	req := NetRequest{ID: 7, Kind: "interval", Port: 1, Start: 5, End: 9}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendJSONRequest(buf[:0], req)
	}); n > 0 {
		t.Errorf("appendJSONRequest allocates %.1f/op, want 0", n)
	}
	qs := []BatchQuery{{Kind: IntervalQuery, Port: 1, Start: 5, End: 9}, {Kind: OriginalQuery, Start: 3}}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendBatchFrame(buf[:0], 7, qs)
	}); n > 0 {
		t.Errorf("appendBatchFrame allocates %.1f/op, want 0", n)
	}
}

// TestWireDifferentialJSONBinary drives an identical query stream through
// the v1 JSON client and the v2 binary client (single and batch ops)
// against one server and requires bit-equal counts and matching errors —
// the acceptance gate that the codecs agree.
func TestWireDifferentialJSONBinary(t *testing.T) {
	srv, ts := netFixture(t)
	jc, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	bc, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	runWireDifferential(t, ts, jc, bc)
}

// runWireDifferential drives the shared query stream through a JSON and a
// binary client (also reused with tracing enabled) and requires bit-equal
// answers.
func runWireDifferential(t *testing.T, ts uint64, jc *QueryClient, bc *MuxClient) {
	t.Helper()
	stream := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},       // full trace
		{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200}, // empty
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts},            // original culprits
		{Kind: IntervalQuery, Port: 9, Start: 0, End: 1},               // unknown port
		{Kind: IntervalQuery, Port: 0, Start: 5, End: 5},               // empty interval error
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: 10},            // quiet instant
	}

	run := func(q BatchQuery, do func() (map[string]float64, error)) (map[string]float64, error) {
		t.Helper()
		return do()
	}
	bitEqual := func(i int, jm, bm map[string]float64) {
		t.Helper()
		if len(jm) != len(bm) {
			t.Fatalf("query %d: json %d flows, binary %d flows", i, len(jm), len(bm))
		}
		for k, jv := range jm {
			bv, ok := bm[k]
			if !ok {
				t.Fatalf("query %d: binary lost flow %q", i, k)
			}
			if math.Float64bits(jv) != math.Float64bits(bv) {
				t.Fatalf("query %d flow %q: json bits %#x, binary bits %#x", i, k, math.Float64bits(jv), math.Float64bits(bv))
			}
		}
	}

	var jsonResults []map[string]float64
	var jsonErrs []error
	for i, q := range stream {
		var jm, bm map[string]float64
		var jerr, berr error
		if q.Kind == IntervalQuery {
			jm, jerr = run(q, func() (map[string]float64, error) { return jc.Interval(q.Port, q.Start, q.End) })
			bm, berr = run(q, func() (map[string]float64, error) { return bc.Interval(q.Port, q.Start, q.End) })
		} else {
			jm, jerr = run(q, func() (map[string]float64, error) { return jc.Original(q.Port, q.Queue, q.Start) })
			bm, berr = run(q, func() (map[string]float64, error) { return bc.Original(q.Port, q.Queue, q.Start) })
		}
		jsonResults = append(jsonResults, jm)
		jsonErrs = append(jsonErrs, jerr)
		if (jerr == nil) != (berr == nil) {
			t.Fatalf("query %d: json err %v, binary err %v", i, jerr, berr)
		}
		if jerr != nil {
			if jerr.Error() != berr.Error() {
				t.Fatalf("query %d: json err %q, binary err %q", i, jerr, berr)
			}
			continue
		}
		if (jm == nil) != (bm == nil) {
			t.Fatalf("query %d: nil-ness differs (json %v, binary %v)", i, jm == nil, bm == nil)
		}
		bitEqual(i, jm, bm)
	}

	// The same stream as one batch frame must agree with the per-query
	// JSON answers too.
	batch, err := bc.Batch(stream)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(stream) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(stream))
	}
	for i, r := range batch {
		if (jsonErrs[i] == nil) != (r.Err == nil) {
			t.Fatalf("batch %d: json err %v, batch err %v", i, jsonErrs[i], r.Err)
		}
		if r.Err != nil {
			if r.Err.Error() != jsonErrs[i].Error() {
				t.Fatalf("batch %d: err %q, want %q", i, r.Err, jsonErrs[i])
			}
			continue
		}
		bitEqual(i, jsonResults[i], r.Counts)
	}
}
