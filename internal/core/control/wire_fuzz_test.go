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
// ones on whatever a switch (or whoever answers at its address) sends, its
// mirror streamer the push and resync ones; a switch runs the request and
// subscribe ones.
var wireDecoders = []struct {
	name   string
	decode func(p []byte) error
}{
	{"counts", func(p []byte) error { _, _, err := decodeCounts(p); return err }},
	{"reply", func(p []byte) error { _, _, err := decodeReply(p); return err }},
	{"replyT", func(p []byte) error { _, _, _, err := decodeReplyT(p); return err }},
	{"batchReply", func(p []byte) error { _, _, err := decodeBatchReply(p); return err }},
	{"batchReplyT", func(p []byte) error { _, _, _, err := decodeBatchReplyT(p); return err }},
	{"batchRequest", func(p []byte) error { _, _, err := decodeBatchRequest(p); return err }},
	{"batchRequestT", func(p []byte) error { _, _, _, err := decodeBatchRequestT(p); return err }},
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
	for _, declared := range []uint64{1 << 26, math.MaxInt32, maxBatch, maxWireSpans} {
		count := appendUvarint(nil, declared)
		withID := append(appendUvarint(nil, 7), count...)
		bodies := map[string][]byte{
			"counts":        count,
			"reply":         append(appendUvarint(nil, 7), append([]byte{0}, count...)...),
			"replyT":        append(append(appendUvarint(nil, 7), 0), append([]byte{0}, count...)...),
			"batchReply":    withID,
			"batchReplyT":   append(append(appendUvarint(nil, 7), 0), count...),
			"batchRequest":  withID,
			"batchRequestT": append(append(appendUvarint(nil, 7), 9), count...),
			"spans":         count,
		}
		for _, d := range wireDecoders {
			body, ok := bodies[d.name]
			if !ok {
				continue // a stream frame declares no count to size anything by
			}
			var err error
			got := allocatedBy(func() { err = d.decode(body) })
			if !errors.Is(err, errTruncated) {
				t.Errorf("%s: %d entries declared in a %d-byte body: err = %v, want errTruncated", d.name, declared, len(body), err)
			}
			if bound := wireAllocBound(len(body)); got > bound {
				t.Errorf("%s: %d entries declared in a %d-byte body allocated %d bytes, bound %d", d.name, declared, len(body), got, bound)
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
// decode to an equal value.
func FuzzWireReply(f *testing.F) {
	// The seeds are the committed corpus (testdata/fuzz/FuzzWireReply):
	// frame payloads of an empty, a one-flow and a 2000-flow reply, an error
	// reply, a batch reply and request, the over-declared counts, a
	// subscribe, a special replayed push, a resync, and a push whose
	// prev-freeze delta runs past its freeze time.
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
		if id, r, err := decodeReply(data); err == nil {
			id2, r2, err := decodeReply(appendStringReplyBody(appendUvarint(nil, id), r))
			if err != nil || id2 != id || !sameResult(r, r2) {
				t.Fatalf("reply %d %+v re-encodes to %d %+v (err %v)", id, r, id2, r2, err)
			}
		}
		if id, rs, err := decodeBatchReply(data); err == nil {
			b := appendUvarint(appendUvarint(nil, id), uint64(len(rs)))
			for _, r := range rs {
				b = appendStringReplyBody(b, r)
			}
			id2, rs2, err := decodeBatchReply(b)
			if err != nil || id2 != id || len(rs2) != len(rs) {
				t.Fatalf("batch reply %d of %d re-encodes to %d of %d (err %v)", id, len(rs), id2, len(rs2), err)
			}
			for i := range rs {
				if !sameResult(rs[i], rs2[i]) {
					t.Fatalf("batch reply result %d: %+v re-encodes to %+v", i, rs[i], rs2[i])
				}
			}
		}
		if id, qs, err := decodeBatchRequest(data); err == nil {
			id2, qs2, err := decodeBatchRequest(appendBatchFrame(nil, id, qs)[frameHeaderLen:])
			if err != nil || id2 != id || len(qs2) != len(qs) {
				t.Fatalf("batch request %d of %d re-encodes to %d of %d (err %v)", id, len(qs), id2, len(qs2), err)
			}
			for i := range qs {
				if qs[i] != qs2[i] {
					t.Fatalf("batch request query %d: %+v re-encodes to %+v", i, qs[i], qs2[i])
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
