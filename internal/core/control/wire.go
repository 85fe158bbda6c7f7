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
// connection, answered in completion order — and a request carries one
// query or many.
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
// The query plane has one request frame and one reply frame, whatever the
// number of queries and whether the request is traced. Payloads are
// varint-packed:
//
//	opRequest:  id, traceID, n ≥ 1, then n × (kind(1B), port, queue, start, end)
//	opResponse: id, spans, n, then n × reply body, in request order
//
// A trace id of 0 means untraced (tracing.Tracer.NewID never issues it). A
// reply body is status(1B): status 0 → counts (below), status 1 → errlen,
// error bytes. spans is the server-side span list of a traced request,
// n × (namelen, name bytes, startNs, durNs), and a lone 0 on an untraced
// one. The ops of earlier layouts (0x01/0x02/0x11/0x12 requests,
// 0x81/0x82/0x91/0x92 replies) are unknown ops here: a peer still speaking
// them is dropped as malformed, never misread as another valid request.
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

	opRequest  byte = 0x03
	opResponse byte = 0x83

	// frameHeaderLen is magic + op + uint32 payload length.
	frameHeaderLen = 6

	// maxFramePayload bounds one frame's payload; a reply carrying every
	// flow of a huge history fits well under it, and a torn or hostile
	// length field cannot make a peer allocate unbounded memory.
	maxFramePayload = 1 << 24

	// maxBatch bounds the query count in one request.
	maxBatch = 1 << 16

	// maxWireSpans bounds the span count in one reply so hostile
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

// BatchQuery is one query of a request. For OriginalQuery the instant goes
// in Start.
type BatchQuery struct {
	Kind        QueryKind
	Port, Queue int
	Start, End  uint64
}

// BatchResult is one query's answer inside a reply.
type BatchResult struct {
	Counts map[string]float64
	Err    error
}

// appendQueryBody encodes one query tuple.
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

// appendRequest encodes a request frame: one id and one round trip for
// every query in qs, traced under traceID (0 = untraced).
func appendRequest(b []byte, id, traceID uint64, qs []BatchQuery) []byte {
	b, at := beginFrame(b, opRequest)
	b = appendUvarint(b, id)
	b = appendUvarint(b, traceID)
	b = appendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendQueryBody(b, q)
	}
	return endFrame(b, at)
}

// decodeRequest decodes an opRequest payload. A request of no query is
// malformed.
func decodeRequest(p []byte) (id, traceID uint64, qs []BatchQuery, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, 0, nil, err
	}
	if traceID, p, err = uvarint(p); err != nil {
		return 0, 0, nil, err
	}
	n, p, err := uvarintCount(p, minQueryBody)
	if err != nil {
		return 0, 0, nil, err
	}
	if n == 0 {
		return 0, 0, nil, fmt.Errorf("%w: request of no query", errTruncated)
	}
	if n > maxBatch {
		return 0, 0, nil, fmt.Errorf("%w: request of %d queries", errFrameSize, n)
	}
	qs = make([]BatchQuery, n)
	for i := range qs {
		if qs[i], p, err = decodeQueryBody(p); err != nil {
			return 0, 0, nil, err
		}
	}
	if len(p) != 0 {
		return 0, 0, nil, errTruncated
	}
	return id, traceID, qs, nil
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

// appendResponse encodes a reply frame: the server-side spans of a traced
// request (none for an untraced one), then one body per query, in request
// order.
func appendResponse(b []byte, id uint64, spans []tracing.Span, resps []wireReply) []byte {
	b, at := beginFrame(b, opResponse)
	b = appendUvarint(b, id)
	b = appendSpans(b, spans)
	b = appendUvarint(b, uint64(len(resps)))
	for _, resp := range resps {
		b = appendReplyBody(b, resp)
	}
	return endFrame(b, at)
}

// decodeResponse decodes an opResponse payload.
func decodeResponse(p []byte) (id uint64, spans []tracing.Span, rs []BatchResult, err error) {
	if id, p, err = uvarint(p); err != nil {
		return 0, nil, nil, err
	}
	if spans, p, err = decodeSpans(p, tracing.SrcServer); err != nil {
		return 0, nil, nil, err
	}
	n, p, err := uvarintCount(p, minReplyBody)
	if err != nil {
		return 0, nil, nil, err
	}
	if n > maxBatch {
		return 0, nil, nil, fmt.Errorf("%w: reply of %d results", errFrameSize, n)
	}
	rs = make([]BatchResult, n)
	for i := range rs {
		if rs[i], p, err = decodeReplyBody(p); err != nil {
			return 0, nil, nil, err
		}
	}
	if len(p) != 0 {
		return 0, nil, nil, errTruncated
	}
	return id, spans, rs, nil
}

// Span lists encode as n × (namelen, name bytes, startNs, durNs), all
// varint-packed. Src is implied: spans on a reply were recorded by the
// server, so the decoder stamps tracing.SrcServer. Only a traced request's
// reply carries spans, so their (small) per-span allocations never touch
// the untraced hot path.

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
