package control

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"printqueue/internal/tracing"
)

// allocatedBy returns the heap bytes f allocated. ReadMemStats stops the
// world and flushes every allocation cache, so the delta is exact up to what
// other goroutines allocate meanwhile.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wireDecoders are the decoders that read a peer's bytes on the query
// plane and the checkpoint stream: a collector's MuxClient runs the reply
// one on whatever a switch (or whoever answers at its address) sends, its
// mirror streamer the push and resync ones; a switch runs the request and
// subscribe ones.
var wireDecoders = []struct {
	name   string
	decode func(p []byte) error
}{
	{"counts", func(p []byte) error { _, _, err := decodeCounts(p); return err }},
	{"request", func(p []byte) error { _, _, _, err := decodeRequest(p); return err }},
	{"response", func(p []byte) error { _, _, _, err := decodeResponse(p); return err }},
	{"spans", func(p []byte) error { _, _, err := decodeSpans(p, tracing.SrcServer); return err }},
	{"subscribe", func(p []byte) error { _, err := decodeSubscribe(p); return err }},
	{"checkpoint", func(p []byte) error { _, err := decodeCheckpointFrame(p); return err }},
	{"resync", func(p []byte) error { _, err := decodeResync(p); return err }},
}

// wireAllocBound is what decoding n bytes may allocate: every element a
// decoder makes room for is backed by at least two bytes of input, and the
// largest thing made per element is a map slot plus an (empty) map, so a few
// dozen bytes per input byte plus a constant covers every honest frame.
func wireAllocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// TestWireOverDeclaredCountRefused is the reproduction of a five-byte reply
// making a collector allocate gigabytes: a body that declares 2^26 (or
// 2^31-1) entries and carries none. decodeCounts sized its map by that
// number before reading a single entry — 3.4 GB and 14 s for 2^26, an OOM
// kill for 2^31-1. Every count-sized allocation on the decode paths must
// refuse such a count without allocating for it.
func TestWireOverDeclaredCountRefused(t *testing.T) {
	decoders := make(map[string]func([]byte) error)
	for _, d := range wireDecoders {
		decoders[d.name] = d.decode
	}
	for _, declared := range []uint64{1 << 26, math.MaxInt32, maxBatch, maxWireSpans} {
		count := appendUvarint(nil, declared)
		// Each body is an id (7), then what precedes the declared count.
		body := func(prefix ...byte) []byte { return append(append([]byte{7}, prefix...), count...) }
		for _, tc := range []struct {
			what, decoder string
			body          []byte
		}{
			{"flows", "counts", count},
			{"queries", "request", body(9)},                  // trace id 9
			{"spans", "response", body()},                    // the span list
			{"results", "response", body(0)},                 // no spans
			{"flows of a result", "response", body(0, 1, 0)}, // no spans, one ok body
			{"spans", "spans", count},
		} {
			var err error
			got := allocatedBy(func() { err = decoders[tc.decoder](tc.body) })
			if !errors.Is(err, errTruncated) {
				t.Errorf("%s: %d %s declared in a %d-byte body: err = %v, want errTruncated", tc.decoder, declared, tc.what, len(tc.body), err)
			}
			if bound := wireAllocBound(len(tc.body)); got > bound {
				t.Errorf("%s: %d %s declared in a %d-byte body allocated %d bytes, bound %d", tc.decoder, declared, tc.what, len(tc.body), got, bound)
			}
		}
	}
}

func sameResult(a, b BatchResult) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	if (a.Counts == nil) != (b.Counts == nil) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for k, v := range a.Counts {
		if w, ok := b.Counts[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// appendStringReplyBody re-encodes a decoded reply body. Fuzzed keys are
// arbitrary strings, so this goes through the string-map oracle encoder
// rather than the server's flow.Counts one.
func appendStringReplyBody(b []byte, r BatchResult) []byte {
	if r.Err != nil {
		// Spelled out: a peer may send an error reply with an empty message,
		// which wireReply cannot express.
		msg := r.Err.Error()
		return append(appendUvarint(append(b, 1), uint64(len(msg))), msg...)
	}
	return appendStringCounts(append(b, 0), r.Counts)
}

// FuzzWireReply feeds arbitrary bytes to every query-plane and
// checkpoint-stream body decoder. None may panic or allocate beyond a small
// multiple of the input; whatever decodes must re-encode to bytes that
// decode to an equal value — a request's trace id and a reply's span list
// included.
func FuzzWireReply(f *testing.F) {
	// The seeds are the committed corpus (testdata/fuzz/FuzzWireReply):
	// payloads of replies to a request of one query (an empty, a one-flow
	// and a 2000-flow answer, an error), of a three-query reply, of a
	// traced reply with server spans, of a request, of over-declared
	// counts, of a subscribe, a special replayed push, a resync, and a push
	// whose prev-freeze delta runs past its freeze time.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// One measurement around all of them: ReadMemStats stops the world,
		// and a pair per decoder would be most of the fuzzer's time.
		got := allocatedBy(func() {
			for _, d := range wireDecoders {
				_ = d.decode(data)
			}
		})
		if bound := uint64(len(wireDecoders)) * wireAllocBound(len(data)); got > bound {
			t.Fatalf("decoding %d bytes %d ways allocated %d, bound %d", len(data), len(wireDecoders), got, bound)
		}
		if counts, rest, err := decodeCounts(data); err == nil {
			again, rest2, err := decodeCounts(append(appendStringCounts(nil, counts), rest...))
			if err != nil || len(rest2) != len(rest) || !sameResult(BatchResult{Counts: counts}, BatchResult{Counts: again}) {
				t.Fatalf("counts %v re-encode to %v (err %v)", counts, again, err)
			}
		}
		if id, traceID, qs, err := decodeRequest(data); err == nil {
			id2, traceID2, qs2, err := decodeRequest(appendRequest(nil, id, traceID, qs)[frameHeaderLen:])
			if err != nil || id2 != id || traceID2 != traceID || !reflect.DeepEqual(qs2, qs) {
				t.Fatalf("request %d trace %d %+v re-encodes to %d trace %d %+v (err %v)", id, traceID, qs, id2, traceID2, qs2, err)
			}
		}
		if id, spans, rs, err := decodeResponse(data); err == nil {
			b := appendUvarint(appendSpans(appendUvarint(nil, id), spans), uint64(len(rs)))
			for _, r := range rs {
				b = appendStringReplyBody(b, r)
			}
			id2, spans2, rs2, err := decodeResponse(b)
			if err != nil || id2 != id || !reflect.DeepEqual(spans2, spans) || len(rs2) != len(rs) {
				t.Fatalf("reply %d with spans %+v and %d results re-encodes to %d with spans %+v and %d results (err %v)",
					id, spans, len(rs), id2, spans2, len(rs2), err)
			}
			for i := range rs {
				if !sameResult(rs[i], rs2[i]) {
					t.Fatalf("reply result %d: %+v re-encodes to %+v", i, rs[i], rs2[i])
				}
			}
		}
		if since, err := decodeSubscribe(data); err == nil {
			if again, err := decodeSubscribe(appendSubscribeFrame(nil, since)[frameHeaderLen:]); err != nil || again != since {
				t.Fatalf("subscribe since %d re-encodes to %d (err %v)", since, again, err)
			}
		}
		if cf, err := decodeCheckpointFrame(data); err == nil {
			var flags byte
			if cf.Special {
				flags |= pushFlagSpecial
			}
			if cf.Replay {
				flags |= pushFlagReplay
			}
			again, err := decodeCheckpointFrame(appendCheckpointFrame(nil, cf.Seq, cf.Port, cf.FreezeTime, cf.PrevFreeze, flags, cf.Payload)[frameHeaderLen:])
			if err != nil || !reflect.DeepEqual(again, cf) {
				t.Fatalf("checkpoint push %+v re-encodes to %+v (err %v)", cf, again, err)
			}
		}
		if dropped, err := decodeResync(data); err == nil {
			if again, err := decodeResync(appendResyncFrame(nil, dropped)[frameHeaderLen:]); err != nil || again != dropped {
				t.Fatalf("resync of %d dropped re-encodes to %d (err %v)", dropped, again, err)
			}
		}
	})
}
