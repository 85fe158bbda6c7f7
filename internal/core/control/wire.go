package control

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"

	"printqueue/internal/flow"
	"printqueue/internal/tracing"
)

// The query wire: a length-prefixed binary framing. A narrow diagnosis
// query takes ~1µs to compute, so what a round trip costs is delivery;
// frames allow true multiplexing — many requests in flight over one
// connection, answered in completion order — plus a batch op that carries
// many queries in a single frame.
//
// Frame layout (both directions):
//
//	+-------+------+----------------+-----------------+
//	| magic |  op  | payload length |     payload     |
//	| 0xB1  | 1 B  |  uint32 BE     | length bytes    |
//	+-------+------+----------------+-----------------+
//
// A stream whose next byte is not the magic has lost framing (or never
// had it: text typed at the port) and is dropped, see isFrameErr.
//
// Payloads are varint-packed:
//
//	opQuery:      id, kind(1B), port, queue, start, end
//	opBatch:      id, n, then n × (kind(1B), port, queue, start, end)
//	opReply:      id, status(1B); status 1 → errlen, error bytes
//	                              status 0 → counts (below)
//	opBatchReply: id, n, then n × reply body (status + error/counts)
//
// Count maps encode as n × (keylen, key bytes, countbits) where countbits
// is ReverseBytes64(Float64bits(v)) varint-packed: typical counts are
// small integers or low-precision fractions whose mantissa tail is zero,
// so the byte-reversed bit pattern is tiny and the varint stays 1–3 bytes
// instead of a fixed 8. Key bytes are the flow's text form; the server
// renders each key straight into the frame (flow.Key.AppendText) — the
// query engine's flow.Counts is never turned into a string-keyed map.
const (
	frameMagic byte = 0xB1

	opQuery      byte = 0x01
	opBatch      byte = 0x02
	opReply      byte = 0x81
	opBatchReply byte = 0x82

	// Traced variants. A traced request carries the client's 64-bit trace
	// id after the request id; a traced reply carries the server-side span
	// list before the reply body. Untraced frames are unchanged by them, so
	// tracing-off costs nothing on the wire.
	opQueryT      byte = 0x11
	opBatchT      byte = 0x12
	opReplyT      byte = 0x91
	opBatchReplyT byte = 0x92

	// frameHeaderLen is magic + op + uint32 payload length.
	frameHeaderLen = 6

	// maxFramePayload bounds one frame's payload; a reply carrying every
	// flow of a huge history fits well under it, and a torn or hostile
	// length field cannot make a peer allocate unbounded memory.
	maxFramePayload = 1 << 24

	// maxBatch bounds the query count in one batch frame.
	maxBatch = 1 << 16

	// maxWireSpans bounds the span count in one traced reply so hostile
	// input cannot force a huge allocation.
	maxWireSpans = 1 << 10
)

// Frame-level decode errors. They mean the stream itself can no longer be
// trusted — unlike an application error, which travels inside a reply —
// so both peers treat them as poison: the server drops the connection, the
// client fails pending requests and redials.
var (
	errBadMagic  = errors.New("control: bad frame magic")
	errFrameSize = errors.New("control: frame exceeds size limit")
	errTruncated = errors.New("control: truncated frame payload")
)

// isFrameErr reports whether err is a protocol-level decode failure (as
// opposed to an I/O error).
func isFrameErr(err error) bool {
	return errors.Is(err, errBadMagic) || errors.Is(err, errFrameSize) || errors.Is(err, errTruncated)
}

// wireBufPool recycles frame encode buffers and per-connection scratch.
// Entries are pointers so Put does not allocate a box per call.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() []byte {
	return (*wireBufPool.Get().(*[]byte))[:0]
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxFramePayload {
		return // don't pin giant one-off buffers in the pool
	}
	b = b[:0]
	wireBufPool.Put(&b)
}

// readerPool recycles per-connection bufio.Readers so accepting (or
// redialing) a connection stops allocating a fresh 4 KiB buffer each time.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nilReader, 4096) },
}

// nilReader detaches a pooled bufio.Reader from its connection so the pool
// does not pin closed conns.
var nilReader = strings.NewReader("")

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nilReader)
	readerPool.Put(br)
}

// beginFrame appends a frame header with a zero length placeholder and
// returns the payload start offset for endFrame to patch.
func beginFrame(b []byte, op byte) ([]byte, int) {
	b = append(b, frameMagic, op, 0, 0, 0, 0)
	return b, len(b)
}

// endFrame patches the payload length of the frame opened at payloadStart.
func endFrame(b []byte, payloadStart int) []byte {
	binary.BigEndian.PutUint32(b[payloadStart-4:payloadStart], uint32(len(b)-payloadStart))
	return b
}

// readFrame reads one frame, reusing scratch's capacity for the payload.
// The returned payload is only valid until the next readFrame on the same
// scratch; callers must fully decode before reading again.
func readFrame(br *bufio.Reader, scratch []byte, maxPayload int) (op byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, scratch, err
	}
	if hdr[0] != frameMagic {
		return 0, scratch, errBadMagic
	}
	n := int(binary.BigEndian.Uint32(hdr[2:frameHeaderLen]))
	if n > maxPayload {
		return 0, scratch, fmt.Errorf("%w: %d bytes", errFrameSize, n)
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, payload, err
	}
	return hdr[1], payload, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// uvarint decodes one varint from p, returning the remainder.
func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, p[n:], nil
}

// uvarintInt decodes a varint that must fit a non-negative int32-ranged
// int (ports, queues, counts) so hostile input cannot wrap negative.
func uvarintInt(p []byte) (int, []byte, error) {
	v, rest, err := uvarint(p)
	if err != nil {
		return 0, nil, err
	}
	if v > math.MaxInt32 {
		return 0, nil, errTruncated
	}
	return int(v), rest, nil
}

// countBits maps a float64 count to its varint-friendly wire form and back:
// byte-reversing the IEEE bits moves the (usually zero) mantissa tail into
// the high bits, so whole and low-precision counts varint-pack in a byte
// or three.
func countBits(v float64) uint64             { return bits.ReverseBytes64(math.Float64bits(v)) }
func countFromBits(u uint64) float64         { return math.Float64frombits(bits.ReverseBytes64(u)) }
func appendCount(b []byte, v float64) []byte { return appendUvarint(b, countBits(v)) }

// appendCounts encodes a count map as n × (keylen, key text, countbits).
// A key's text is at most flow.MaxKeyTextLen bytes, so its length is always
// a one-byte varint: the byte is reserved, the text appended in place, and
// the byte patched.
func appendCounts(b []byte, counts flow.Counts) []byte {
	b = appendUvarint(b, uint64(len(counts)))
	for k, v := range counts {
		at := len(b)
		b = k.AppendText(append(b, 0))
		b[at] = byte(len(b) - at - 1)
		b = appendCount(b, v)
	}
	return b
}

// minCountEntry is the fewest bytes one count-map entry occupies: a key
// length and a count varint.
const minCountEntry = 2

// uvarintCount decodes an element count whose elements occupy at least
// minElem bytes each of what follows. A count the remaining payload cannot
// hold is refused here, before the caller sizes an allocation by it: the
// frame length a peer is allowed to send bounds what it can make us
// allocate.
func uvarintCount(p []byte, minElem int) (int, []byte, error) {
	n, p, err := uvarintInt(p)
	if err != nil {
		return 0, nil, err
	}
	if n > len(p)/minElem {
		return 0, nil, errTruncated
	}
	return n, p, nil
}

// decodeCounts decodes a count map, returning the remainder of p.
func decodeCounts(p []byte) (map[string]float64, []byte, error) {
	n, p, err := uvarintCount(p, minCountEntry)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		var klen int
		klen, p, err = uvarintInt(p)
		if err != nil {
			return nil, nil, err
		}
		if klen > len(p) {
			return nil, nil, errTruncated
		}
		key := string(p[:klen])
		p = p[klen:]
		var u uint64
		u, p, err = uvarint(p)
		if err != nil {
			return nil, nil, err
		}
		m[key] = countFromBits(u)
	}
	return m, p, nil
}

// BatchQuery is one query inside a batch frame (and the internal form of a
// single query). For OriginalQuery the instant goes in Start.
type BatchQuery struct {
	Kind        QueryKind
	Port, Queue int
	Start, End  uint64
}

// BatchResult is one query's answer inside a batch reply.
type BatchResult struct {
	Counts map[string]float64
	Err    error
}

// appendQueryBody encodes one query tuple (shared by opQuery and opBatch).
func appendQueryBody(b []byte, q BatchQuery) []byte {
	b = append(b, byte(q.Kind))
	b = appendUvarint(b, uint64(q.Port))
	b = appendUvarint(b, uint64(q.Queue))
	b = appendUvarint(b, q.Start)
	b = appendUvarint(b, q.End)
	return b
}

// decodeQueryBody decodes one query tuple, returning the remainder.
func decodeQueryBody(p []byte) (BatchQuery, []byte, error) {
	var q BatchQuery
	if len(p) < 1 {
		return q, nil, errTruncated
	}
	kind := p[0]
	if kind > byte(OriginalQuery) {
		return q, nil, fmt.Errorf("%w: unknown query kind %d", errTruncated, kind)
	}
	q.Kind = QueryKind(kind)
	p = p[1:]
	var err error
	if q.Port, p, err = uvarintInt(p); err != nil {
		return q, nil, err
	}
	if q.Queue, p, err = uvarintInt(p); err != nil {
		return q, nil, err
	}
	if q.Start, p, err = uvarint(p); err != nil {
		return q, nil, err
	}
	if q.End, p, err = uvarint(p); err != nil {
		return q, nil, err
	}
	return q, p, nil
}

// minQueryBody is the fewest bytes one query tuple occupies: the kind byte
// and four varints.
const minQueryBody = 5

// decodeQueryBodies decodes a batch's count and query tuples (shared by
// opBatch and opBatchT), returning the remainder.
func decodeQueryBodies(p []byte) ([]BatchQuery, []byte, error) {
	n, p, err := uvarintCount(p, minQueryBody)
	if err != nil {
		return nil, nil, err
	}
	if n > maxBatch {
		return nil, nil, fmt.Errorf("%w: batch of %d queries", errFrameSize, n)
	}
	qs := make([]BatchQuery, n)
	for i := range qs {
		if qs[i], p, err = decodeQueryBody(p); err != nil {
			return nil, nil, err
		}
	}
	return qs, p, nil
}

// appendQueryFrame encodes a single-query request frame.
func appendQueryFrame(b []byte, id uint64, q BatchQuery) []byte {
	b, at := beginFrame(b, opQuery)
	b = appendUvarint(b, id)
	b = appendQueryBody(b, q)
	return endFrame(b, at)
}

// decodeQueryRequest decodes an opQuery payload.
func decodeQueryRequest(p []byte) (id uint64, q BatchQuery, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, q, err
	}
	if q, p, err = decodeQueryBody(p); err != nil {
		return 0, q, err
	}
	if len(p) != 0 {
		return 0, q, errTruncated
	}
	return id, q, nil
}

// appendBatchFrame encodes a batch request frame: many queries, one id,
// one round trip.
func appendBatchFrame(b []byte, id uint64, qs []BatchQuery) []byte {
	b, at := beginFrame(b, opBatch)
	b = appendUvarint(b, id)
	b = appendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendQueryBody(b, q)
	}
	return endFrame(b, at)
}

// decodeBatchRequest decodes an opBatch payload.
func decodeBatchRequest(p []byte) (id uint64, qs []BatchQuery, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, nil, err
	}
	if qs, p, err = decodeQueryBodies(p); err != nil {
		return 0, nil, err
	}
	if len(p) != 0 {
		return 0, nil, errTruncated
	}
	return id, qs, nil
}

// wireReply is one executed query's answer on the server side: an
// application error, or the counts keyed by flow as the query engine
// produced them. Flow keys become text only where a reply is encoded
// (appendCounts).
type wireReply struct {
	Counts flow.Counts
	Error  string
}

// appendReplyBody encodes one reply body: status byte, then error string
// or counts.
func appendReplyBody(b []byte, resp wireReply) []byte {
	if resp.Error != "" {
		b = append(b, 1)
		b = appendUvarint(b, uint64(len(resp.Error)))
		b = append(b, resp.Error...)
		return b
	}
	b = append(b, 0)
	return appendCounts(b, resp.Counts)
}

// decodeReplyBody decodes one reply body, returning the remainder. An
// error reply comes back with a non-nil Err and nil Counts; an ok reply
// always has a non-nil (possibly empty) Counts map.
func decodeReplyBody(p []byte) (BatchResult, []byte, error) {
	var r BatchResult
	if len(p) < 1 {
		return r, nil, errTruncated
	}
	status := p[0]
	p = p[1:]
	switch status {
	case 0:
		var err error
		if r.Counts, p, err = decodeCounts(p); err != nil {
			return r, nil, err
		}
	case 1:
		elen, p2, err := uvarintInt(p)
		if err != nil {
			return r, nil, err
		}
		if elen > len(p2) {
			return r, nil, errTruncated
		}
		msg := string(p2[:elen])
		p = p2[elen:]
		if msg == ErrOverloaded.Error() {
			r.Err = ErrOverloaded
		} else {
			r.Err = errors.New(msg)
		}
	default:
		return r, nil, fmt.Errorf("%w: unknown reply status %d", errTruncated, status)
	}
	return r, p, nil
}

// minReplyBody is the fewest bytes one reply body occupies: the status byte
// and an error length or flow count.
const minReplyBody = 2

// decodeReplyBodies decodes a batch reply's count and bodies (shared by
// opBatchReply and opBatchReplyT), returning the remainder.
func decodeReplyBodies(p []byte) ([]BatchResult, []byte, error) {
	n, p, err := uvarintCount(p, minReplyBody)
	if err != nil {
		return nil, nil, err
	}
	if n > maxBatch {
		return nil, nil, fmt.Errorf("%w: batch reply of %d results", errFrameSize, n)
	}
	rs := make([]BatchResult, n)
	for i := range rs {
		if rs[i], p, err = decodeReplyBody(p); err != nil {
			return nil, nil, err
		}
	}
	return rs, p, nil
}

// appendReplyFrame encodes a single-query reply frame.
func appendReplyFrame(b []byte, id uint64, resp wireReply) []byte {
	b, at := beginFrame(b, opReply)
	b = appendUvarint(b, id)
	b = appendReplyBody(b, resp)
	return endFrame(b, at)
}

// decodeReply decodes an opReply payload.
func decodeReply(p []byte) (id uint64, r BatchResult, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, r, err
	}
	if r, p, err = decodeReplyBody(p); err != nil {
		return 0, r, err
	}
	if len(p) != 0 {
		return 0, r, errTruncated
	}
	return id, r, nil
}

// appendBatchReplyFrame encodes a batch reply frame: one body per query,
// in request order.
func appendBatchReplyFrame(b []byte, id uint64, resps []wireReply) []byte {
	b, at := beginFrame(b, opBatchReply)
	b = appendUvarint(b, id)
	b = appendUvarint(b, uint64(len(resps)))
	for _, resp := range resps {
		b = appendReplyBody(b, resp)
	}
	return endFrame(b, at)
}

// decodeBatchReply decodes an opBatchReply payload.
func decodeBatchReply(p []byte) (id uint64, rs []BatchResult, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, nil, err
	}
	if rs, p, err = decodeReplyBodies(p); err != nil {
		return 0, nil, err
	}
	if len(p) != 0 {
		return 0, nil, errTruncated
	}
	return id, rs, nil
}

// --- Traced frames ---
//
// Span lists encode as n × (namelen, name bytes, startNs, durNs), all
// varint-packed. Src is implied: spans on a reply were recorded by the
// server, so the decoder stamps tracing.SrcServer. Traced frames are
// only emitted for sampled queries, so their (small) per-span
// allocations never touch the untraced hot path.

// appendSpans encodes a span list.
func appendSpans(b []byte, spans []tracing.Span) []byte {
	if len(spans) > maxWireSpans {
		spans = spans[:maxWireSpans]
	}
	b = appendUvarint(b, uint64(len(spans)))
	for _, sp := range spans {
		b = appendUvarint(b, uint64(len(sp.Name)))
		b = append(b, sp.Name...)
		b = appendUvarint(b, sp.Start)
		b = appendUvarint(b, sp.Dur)
	}
	return b
}

// minWireSpan is the fewest bytes one span occupies: a name length and two
// varints.
const minWireSpan = 3

// decodeSpans decodes a span list, stamping src on each span.
func decodeSpans(p []byte, src string) ([]tracing.Span, []byte, error) {
	n, p, err := uvarintCount(p, minWireSpan)
	if err != nil {
		return nil, nil, err
	}
	if n > maxWireSpans {
		return nil, nil, fmt.Errorf("%w: %d spans", errFrameSize, n)
	}
	spans := make([]tracing.Span, n)
	for i := range spans {
		var nlen int
		nlen, p, err = uvarintInt(p)
		if err != nil {
			return nil, nil, err
		}
		if nlen > len(p) {
			return nil, nil, errTruncated
		}
		spans[i].Name = string(p[:nlen])
		spans[i].Src = src
		p = p[nlen:]
		if spans[i].Start, p, err = uvarint(p); err != nil {
			return nil, nil, err
		}
		if spans[i].Dur, p, err = uvarint(p); err != nil {
			return nil, nil, err
		}
	}
	return spans, p, nil
}

// appendQueryTFrame encodes a traced single-query request frame:
// id, traceID, query body.
func appendQueryTFrame(b []byte, id, traceID uint64, q BatchQuery) []byte {
	b, at := beginFrame(b, opQueryT)
	b = appendUvarint(b, id)
	b = appendUvarint(b, traceID)
	b = appendQueryBody(b, q)
	return endFrame(b, at)
}

// decodeQueryRequestT decodes an opQueryT payload.
func decodeQueryRequestT(p []byte) (id, traceID uint64, q BatchQuery, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, 0, q, err
	}
	if traceID, p, err = uvarint(p); err != nil {
		return 0, 0, q, err
	}
	if q, p, err = decodeQueryBody(p); err != nil {
		return 0, 0, q, err
	}
	if len(p) != 0 {
		return 0, 0, q, errTruncated
	}
	return id, traceID, q, nil
}

// appendBatchTFrame encodes a traced batch request frame.
func appendBatchTFrame(b []byte, id, traceID uint64, qs []BatchQuery) []byte {
	b, at := beginFrame(b, opBatchT)
	b = appendUvarint(b, id)
	b = appendUvarint(b, traceID)
	b = appendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendQueryBody(b, q)
	}
	return endFrame(b, at)
}

// decodeBatchRequestT decodes an opBatchT payload.
func decodeBatchRequestT(p []byte) (id, traceID uint64, qs []BatchQuery, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, 0, nil, err
	}
	if traceID, p, err = uvarint(p); err != nil {
		return 0, 0, nil, err
	}
	if qs, p, err = decodeQueryBodies(p); err != nil {
		return 0, 0, nil, err
	}
	if len(p) != 0 {
		return 0, 0, nil, errTruncated
	}
	return id, traceID, qs, nil
}

// appendReplyTFrame encodes a traced single-query reply frame:
// id, spans, reply body.
func appendReplyTFrame(b []byte, id uint64, resp wireReply, spans []tracing.Span) []byte {
	b, at := beginFrame(b, opReplyT)
	b = appendUvarint(b, id)
	b = appendSpans(b, spans)
	b = appendReplyBody(b, resp)
	return endFrame(b, at)
}

// decodeReplyT decodes an opReplyT payload.
func decodeReplyT(p []byte) (id uint64, r BatchResult, spans []tracing.Span, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, r, nil, err
	}
	if spans, p, err = decodeSpans(p, tracing.SrcServer); err != nil {
		return 0, r, nil, err
	}
	if r, p, err = decodeReplyBody(p); err != nil {
		return 0, r, nil, err
	}
	if len(p) != 0 {
		return 0, r, nil, errTruncated
	}
	return id, r, spans, nil
}

// appendBatchReplyTFrame encodes a traced batch reply frame:
// id, spans, n, reply bodies.
func appendBatchReplyTFrame(b []byte, id uint64, resps []wireReply, spans []tracing.Span) []byte {
	b, at := beginFrame(b, opBatchReplyT)
	b = appendUvarint(b, id)
	b = appendSpans(b, spans)
	b = appendUvarint(b, uint64(len(resps)))
	for _, resp := range resps {
		b = appendReplyBody(b, resp)
	}
	return endFrame(b, at)
}

// decodeBatchReplyT decodes an opBatchReplyT payload.
func decodeBatchReplyT(p []byte) (id uint64, rs []BatchResult, spans []tracing.Span, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, nil, nil, err
	}
	if spans, p, err = decodeSpans(p, tracing.SrcServer); err != nil {
		return 0, nil, nil, err
	}
	if rs, p, err = decodeReplyBodies(p); err != nil {
		return 0, nil, nil, err
	}
	if len(p) != 0 {
		return 0, nil, nil, errTruncated
	}
	return id, rs, spans, nil
}
