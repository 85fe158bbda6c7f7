package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// NetServer exposes the analysis program's queries over TCP — the paper's
// Figure-3 "Asynchronous Query" arrow: higher-layer applications send a
// request to the analysis program running on the switch CPU.
//
// Two wire protocols share the listener, negotiated by the first byte of
// each connection:
//
//   - Wire protocol v2 (first byte 0xB1): length-prefixed binary frames
//     with true multiplexing — many requests in flight per connection,
//     dispatched concurrently to the query workers and answered in
//     completion order, plus a batch op carrying many queries in one
//     frame. See wire.go for the frame layout and MuxClient for the
//     matching client.
//
//   - v1 fallback (anything else): newline-delimited JSON, one response
//     per request, in order. Request:
//
//     {"id":1,"kind":"interval","port":0,"start":1000,"end":2000}
//     {"id":2,"kind":"original","port":0,"queue":0,"at":1500}
//
//     Response:
//
//     {"id":1,"counts":{"10.0.0.1:80>10.0.0.2:90/tcp":12.5,...}}
//     {"id":2,"error":"control: port 9 not activated"}
//
// In both protocols the server echoes the request's id verbatim so a
// client that abandoned an earlier round trip (e.g. after an I/O timeout)
// can never mistake the late response for the answer to a newer query.
type NetServer struct {
	qs   *QueryServer
	ln   net.Listener
	opts ServeOptions

	connections   *telemetry.Counter
	binaryConns   *telemetry.Counter
	requests      *telemetry.Counter
	badRequests   *telemetry.Counter
	shed          *telemetry.Counter
	acceptRetries *telemetry.Counter
	framesRx      *telemetry.Counter
	framesTx      *telemetry.Counter
	bytesRx       *telemetry.Counter
	bytesTx       *telemetry.Counter
	batched       *telemetry.Counter
	inflightGauge *telemetry.Gauge
	connInflight  *telemetry.Gauge

	// inflight counts requests currently submitted to the query server
	// across all connections; the shed bound compares against it.
	inflight atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NetRequest is the wire form of a query request.
type NetRequest struct {
	// ID tags the request so its response can be matched unambiguously.
	// The server echoes it verbatim; clients use monotonically increasing
	// ids. 0 (legacy clients) is echoed as an omitted field.
	ID    uint64 `json:"id,omitempty"`
	Kind  string `json:"kind"` // "interval" or "original"
	Port  int    `json:"port"`
	Queue int    `json:"queue,omitempty"`
	Start uint64 `json:"start,omitempty"`
	End   uint64 `json:"end,omitempty"`
	At    uint64 `json:"at,omitempty"`
	// Trace, when non-zero, is the client's trace id: the server joins
	// it, records its per-stage spans, and returns them on the response
	// so both halves merge into one trace (the JSON twin of opQueryT).
	Trace uint64 `json:"trace,omitempty"`
}

// NetResponse is the wire form of a query response.
type NetResponse struct {
	// ID echoes the request's id (omitted for id-less legacy requests and
	// for replies to undecodable lines).
	ID     uint64             `json:"id,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
	Error  string             `json:"error,omitempty"`
	// Spans carries the server-side stage spans of a traced request back
	// to the client (only set when the request carried a trace id).
	Spans []tracing.Span `json:"spans,omitempty"`
}

// ErrOverloaded is returned (and sent on the wire as {"error":"overloaded"})
// when the query backlog exceeds the server's shed limit. It is retryable:
// the request was rejected before execution, so a client may back off and
// resend on the same connection.
var ErrOverloaded = errors.New("overloaded")

// Server-side resilience defaults. They bound how long a dead peer can pin
// resources without getting in the way of any real workload.
const (
	// DefaultIdleTimeout is how long a connection may sit between requests
	// before the server reclaims its handler goroutine.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one response write, so a client that
	// stopped reading cannot block a handler forever.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultShedLimit is the request backlog beyond which the server
	// replies {"error":"overloaded"} instead of queueing.
	DefaultShedLimit = 256
)

// ServeOptions tunes a NetServer's graceful-degradation behavior.
type ServeOptions struct {
	// IdleTimeout is the per-connection read deadline while waiting for the
	// next request. 0 means DefaultIdleTimeout; negative disables it.
	IdleTimeout time.Duration
	// WriteTimeout is the deadline for writing one response. 0 means
	// DefaultWriteTimeout; negative disables it.
	WriteTimeout time.Duration
	// ShedLimit bounds requests concurrently in flight on the query server
	// across all connections; excess requests are answered with
	// {"error":"overloaded"} immediately. 0 means DefaultShedLimit;
	// negative disables shedding.
	ShedLimit int
}

func (o *ServeOptions) normalize() {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.ShedLimit == 0 {
		o.ShedLimit = DefaultShedLimit
	}
}

// ServeQueries starts a TCP listener on addr (e.g. "127.0.0.1:0") backed by
// the query server, which must already be started. Close shuts it down.
func ServeQueries(addr string, qs *QueryServer) (*NetServer, error) {
	return ServeQueriesOpts(addr, qs, ServeOptions{})
}

// ServeQueriesOpts is ServeQueries with explicit resilience options.
func ServeQueriesOpts(addr string, qs *QueryServer, opts ServeOptions) (*NetServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeQueriesListener(ln, qs, opts), nil
}

// ServeQueriesListener serves the query protocol on an existing listener
// (e.g. a fault-injecting wrapper in tests). The server owns the listener
// and closes it on Close.
func ServeQueriesListener(ln net.Listener, qs *QueryServer, opts ServeOptions) *NetServer {
	opts.normalize()
	reg := qs.sys.telemetry
	s := &NetServer{
		qs: qs, ln: ln, opts: opts, conns: make(map[net.Conn]struct{}),
		connections: reg.Counter("printqueue_netserver_connections_total",
			"TCP query connections accepted."),
		requests: reg.Counter("printqueue_netserver_requests_total",
			"Query requests received over TCP."),
		badRequests: reg.Counter("printqueue_netserver_bad_requests_total",
			"TCP query requests rejected as malformed."),
		shed: reg.Counter("printqueue_netserver_shed_total",
			"Query requests rejected with {\"error\":\"overloaded\"} because the backlog exceeded the shed limit."),
		acceptRetries: reg.Counter("printqueue_netserver_accept_retries_total",
			"Transient accept failures survived by the listener's retry loop."),
		binaryConns: reg.Counter("printqueue_netserver_binary_connections_total",
			"TCP query connections negotiated to the binary (v2) framing."),
		framesRx: reg.Counter("printqueue_netserver_frames_total",
			"Binary protocol frames processed.", telemetry.L("dir", "rx")),
		framesTx: reg.Counter("printqueue_netserver_frames_total",
			"Binary protocol frames processed.", telemetry.L("dir", "tx")),
		bytesRx: reg.Counter("printqueue_netserver_frame_bytes_total",
			"Binary protocol bytes processed, headers included.", telemetry.L("dir", "rx")),
		bytesTx: reg.Counter("printqueue_netserver_frame_bytes_total",
			"Binary protocol bytes processed, headers included.", telemetry.L("dir", "tx")),
		batched: reg.Counter("printqueue_netserver_batched_queries_total",
			"Queries that arrived inside a batch frame."),
		inflightGauge: reg.Gauge("printqueue_netserver_inflight",
			"Query requests admitted and currently executing, across all connections."),
		connInflight: reg.Gauge("printqueue_netserver_conn_inflight_max",
			"High watermark of requests in flight on a single connection."),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with port 0).
func (s *NetServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes open connections, and waits for handler
// goroutines to drain.
func (s *NetServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *NetServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *NetServer) acceptLoop() {
	defer s.wg.Done()
	const maxAcceptBackoff = time.Second
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failures — fd exhaustion (EMFILE/ENFILE),
			// aborted handshakes — must not kill the listener: back off
			// and retry instead of abandoning the query plane.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			s.acceptRetries.Inc()
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connections.Inc()
		go s.handle(conn)
	}
}

// maxLine caps one request line; a query interval/point is ~100 bytes of
// JSON, so a generous cap guards against hostile input.
const maxLine = 1 << 16

// admit reserves n units of query backlog, shedding if the limit would be
// exceeded. release returns them.
func (s *NetServer) admit(n int64) bool {
	v := s.inflight.Add(n)
	if s.opts.ShedLimit > 0 && v > int64(s.opts.ShedLimit) {
		s.inflight.Add(-n)
		s.shed.Inc()
		s.qs.sys.Events().Record(tracing.EventShed, "netserver", v-n, 0)
		return false
	}
	s.inflightGauge.Add(n)
	return true
}

// serverTrace opens the server half of a traced query, joining the
// client's trace id (forced ids bypass sampling). With local tracing
// disabled the trace is detached: spans still travel back in the reply,
// but nothing is retained server-side.
func (s *NetServer) serverTrace(name string, traceID uint64) *tracing.Trace {
	if t := s.qs.sys.Tracer(); t != nil {
		return t.StartForced(name, traceID)
	}
	return tracing.NewDetached(name, traceID, 0)
}

// kindName maps a wire query kind to its trace root name.
func kindName(k QueryKind) string {
	if k == OriginalQuery {
		return "original"
	}
	return "interval"
}

func (s *NetServer) release(n int64) {
	s.inflight.Add(-n)
	s.inflightGauge.Add(-n)
}

// handle sniffs the connection's first byte to negotiate the protocol: a
// binary frame's magic byte can never begin a JSON request, so v2 clients
// are detected without a handshake round trip and v1 clients fall back to
// the JSON line protocol transparently.
func (s *NetServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := getReader(conn)
	defer putReader(br)
	if s.opts.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return
		}
	}
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == frameMagic {
		s.binaryConns.Inc()
		s.handleBinary(conn, br)
		return
	}
	s.handleJSON(conn, br)
}

// handleJSON serves the v1 newline-delimited JSON protocol: one request,
// one response, in order. Line scratch and response encode buffers are
// pooled and reused across requests.
func (s *NetServer) handleJSON(conn net.Conn, br *bufio.Reader) {
	scratch := getBuf()
	defer func() { putBuf(scratch) }()
	for {
		if s.opts.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
				return
			}
		}
		line, tooLong, err := readLine(br, scratch[:0], maxLine)
		if err != nil {
			return // peer gone, reset, or idle deadline expired
		}
		scratch = line[:0] // keep any capacity readLine grew
		if tooLong {
			s.badRequests.Inc()
			if !s.reply(conn, NetResponse{Error: fmt.Sprintf("bad request: line exceeds %d bytes", maxLine)}) {
				return
			}
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		s.requests.Inc()
		var req NetRequest
		var resp NetResponse
		var tr *tracing.Trace
		if err := json.Unmarshal(line, &req); err != nil {
			s.badRequests.Inc()
			resp = NetResponse{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			if req.Trace != 0 {
				tr = s.serverTrace(req.Kind, req.Trace)
			}
			sp := tr.StartSpan("server.dispatch", tracing.SrcServer)
			if !s.admit(1) {
				sp.End()
				resp = NetResponse{ID: req.ID, Error: ErrOverloaded.Error()}
			} else {
				sp.End()
				resp = s.execute(req, tr)
				s.release(1)
			}
		}
		if tr != nil {
			resp.Spans = tr.Spans()
		}
		if !s.replyTrace(conn, resp, tr) {
			return
		}
	}
}

// handleBinary serves wire protocol v2: a reader loop decodes frames and
// dispatches each request to the query workers concurrently, and a writer
// goroutine streams replies back in completion order. A frame that fails
// to decode means the stream can no longer be trusted (unlike JSON lines,
// frames cannot resynchronize), so the connection is dropped; the client
// treats that as poison and redials.
func (s *NetServer) handleBinary(conn net.Conn, br *bufio.Reader) {
	out := make(chan outFrame, 64)
	writerDone := make(chan struct{})
	go s.connWriter(conn, out, writerDone)
	var reqWG sync.WaitGroup
	var perConn atomic.Int64 // requests in flight on this connection
	scratch := getBuf()
	// stopPush unwinds a checkpoint-push goroutine (opSubscribe) when the
	// reader loop exits, so the drain below can safely close out.
	stopPush := make(chan struct{})
	subscribed := false
loop:
	for {
		if s.opts.IdleTimeout > 0 && !subscribed {
			if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
				break
			}
		}
		op, payload, err := readFrame(br, scratch, maxFramePayload)
		scratch = payload[:0]
		if err != nil {
			if isFrameErr(err) {
				s.badRequests.Inc()
			}
			break
		}
		s.framesRx.Inc()
		s.bytesRx.Add(int64(frameHeaderLen + len(payload)))
		switch op {
		case opQuery, opQueryT:
			var id, traceID uint64
			var q BatchQuery
			var err error
			if op == opQueryT {
				id, traceID, q, err = decodeQueryRequestT(payload)
			} else {
				id, q, err = decodeQueryRequest(payload)
			}
			if err != nil {
				s.badRequests.Inc()
				break loop
			}
			s.requests.Inc()
			var tr *tracing.Trace
			if op == opQueryT {
				tr = s.serverTrace(kindName(q.Kind), traceID)
			}
			spD := tr.StartSpan("server.dispatch", tracing.SrcServer)
			if !s.admit(1) {
				spD.End()
				resp := wireReply{Error: ErrOverloaded.Error()}
				out <- outFrame{buf: s.encodeReply(id, resp, tr), tr: tr, errStr: resp.Error}
				continue
			}
			reqWG.Add(1)
			s.connInflight.Max(perConn.Add(1))
			go func() {
				defer reqWG.Done()
				spD.End() // dispatch = decode + admit + handoff to this goroutine
				resp := s.executeWire(q, tr)
				s.release(1)
				perConn.Add(-1)
				out <- outFrame{buf: s.encodeReply(id, resp, tr), tr: tr, errStr: resp.Error}
			}()
		case opBatch, opBatchT:
			var id, traceID uint64
			var qs []BatchQuery
			var err error
			if op == opBatchT {
				id, traceID, qs, err = decodeBatchRequestT(payload)
			} else {
				id, qs, err = decodeBatchRequest(payload)
			}
			if err != nil {
				s.badRequests.Inc()
				break loop
			}
			s.requests.Add(int64(len(qs)))
			s.batched.Add(int64(len(qs)))
			var tr *tracing.Trace
			if op == opBatchT {
				tr = s.serverTrace("batch", traceID)
			}
			spD := tr.StartSpan("server.dispatch", tracing.SrcServer)
			if len(qs) == 0 {
				spD.End()
				out <- outFrame{buf: s.encodeBatchReply(id, nil, tr), tr: tr}
				continue
			}
			// A batch is admitted whole: each query counts one unit
			// against the shed limit, and an over-limit batch sheds in a
			// single reply rather than executing partially.
			if !s.admit(int64(len(qs))) {
				spD.End()
				resps := make([]wireReply, len(qs))
				for i := range resps {
					resps[i].Error = ErrOverloaded.Error()
				}
				out <- outFrame{buf: s.encodeBatchReply(id, resps, tr), tr: tr, errStr: ErrOverloaded.Error()}
				continue
			}
			reqWG.Add(1)
			s.connInflight.Max(perConn.Add(int64(len(qs))))
			go s.serveBatch(id, qs, tr, spD, out, &reqWG, &perConn)
		case opSubscribe:
			since, err := decodeSubscribe(payload)
			if err != nil || subscribed {
				s.badRequests.Inc()
				break loop
			}
			subscribed = true
			// A push stream has no request cadence, so the idle deadline
			// would kill a healthy but quiet subscription; clear it. The
			// reader stays blocked as the connection-death detector.
			conn.SetReadDeadline(time.Time{})
			// Subscribe to live retires before replaying the log so no
			// checkpoint falls between the two; the subscriber dedupes the
			// overlap by freeze time.
			sub := s.qs.sys.stream.subscribe()
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				defer s.qs.sys.stream.unsubscribe(sub)
				s.pushCheckpoints(sub, since, out, stopPush)
			}()
		default:
			s.badRequests.Inc()
			break loop
		}
	}
	// Drain: unwind a push goroutine, wait for dispatched requests (their
	// replies flow through out), then let the writer finish and reclaim
	// its buffers.
	close(stopPush)
	reqWG.Wait()
	close(out)
	<-writerDone
	putBuf(scratch)
}

// outFrame is one encoded reply headed for the connection writer, plus
// the server-side trace it closes (nil for untraced requests).
type outFrame struct {
	buf    []byte
	tr     *tracing.Trace
	errStr string // the reply's application error, annotated at Finish
}

// encodeReply encodes a single-query reply, traced or not. For a traced
// request the reply carries the trace's spans recorded so far (the write
// span lands afterwards and is only visible server-side).
func (s *NetServer) encodeReply(id uint64, resp wireReply, tr *tracing.Trace) []byte {
	if tr != nil {
		return appendReplyTFrame(getBuf(), id, resp, tr.Spans())
	}
	return appendReplyFrame(getBuf(), id, resp)
}

// encodeBatchReply is encodeReply for batch replies.
func (s *NetServer) encodeBatchReply(id uint64, resps []wireReply, tr *tracing.Trace) []byte {
	if tr != nil {
		return appendBatchReplyTFrame(getBuf(), id, resps, tr.Spans())
	}
	return appendBatchReplyFrame(getBuf(), id, resps)
}

// serveBatch fans a batch's queries out to the query workers concurrently
// and answers with one frame once every query completes, in request order.
func (s *NetServer) serveBatch(id uint64, qs []BatchQuery, tr *tracing.Trace, spD tracing.SpanHandle, out chan<- outFrame, reqWG *sync.WaitGroup, perConn *atomic.Int64) {
	defer reqWG.Done()
	spD.End()
	resps := make([]wireReply, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.executeWire(qs[i], tr)
		}(i)
	}
	wg.Wait()
	s.release(int64(len(qs)))
	perConn.Add(int64(-len(qs)))
	out <- outFrame{buf: s.encodeBatchReply(id, resps, tr), tr: tr}
}

// errPushStopped aborts a segment-log replay when the subscriber's
// connection is unwinding.
var errPushStopped = errors.New("control: checkpoint push stopped")

// pushCheckpoints drives one checkpoint subscription: replay the segment
// log for records with FreezeTime > since, then stream live retires from
// the subscriber's bounded queue, emitting a resync marker whenever
// backpressure forced drops. Sequence numbers are assigned here, at send
// time, so replayed and live frames share one monotonic sequence; pushed
// frames ride the connection's ordinary writer goroutine, interleaving
// with any query replies on the same connection.
func (s *NetServer) pushCheckpoints(sub *streamSub, since uint64, out chan<- outFrame, stop <-chan struct{}) {
	var seq uint64
	send := func(buf []byte) bool {
		select {
		case out <- outFrame{buf: buf}:
			return true
		case <-stop:
			putBuf(buf)
			return false
		}
	}
	if hist := s.qs.sys.hist; hist != nil {
		err := hist.ReplaySince(since, func(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error {
			seq++
			flags := pushFlagReplay
			if special {
				flags |= pushFlagSpecial
			}
			if !send(appendCheckpointFrame(getBuf(), seq, port, freezeTime, prevFreeze, flags, payload)) {
				return errPushStopped
			}
			return nil
		})
		if errors.Is(err, errPushStopped) {
			return
		}
		// Any other replay error (disk fault, pruned segment racing a
		// read): stream live anyway. The subscriber's coverage tracking
		// keeps its answers sound over the missing span, and a later
		// resubscribe retries the replay.
	}
	for {
		for {
			rec, dropped, ok := sub.pop()
			if dropped > 0 {
				// Records were evicted under backpressure before rec; tell
				// the subscriber its view gapped so it never serves the
				// hole silently.
				if !send(appendResyncFrame(getBuf(), dropped)) {
					if ok {
						putBuf(rec.buf)
					}
					return
				}
			}
			if !ok {
				break
			}
			seq++
			buf := appendCheckpointFrame(getBuf(), seq, rec.port, rec.freezeTime, rec.prevFreeze, rec.flags, rec.buf)
			putBuf(rec.buf)
			if !send(buf) {
				return
			}
		}
		select {
		case <-sub.wake:
		case <-stop:
			return
		}
	}
}

// connWriter is the per-connection writer goroutine for the binary
// protocol: it streams completed replies in the order they finish, under
// the write deadline, recycling each frame buffer. After a write error it
// keeps draining (and recycling) so dispatched requests never block, but
// the connection is closed so the reader loop unwinds too. Traced
// requests are orphan-closed here: whether the write succeeded or the
// connection died, the server-side trace is finished exactly once.
func (s *NetServer) connWriter(conn net.Conn, out <-chan outFrame, done chan<- struct{}) {
	defer close(done)
	dead := false
	for f := range out {
		if !dead {
			if s.opts.WriteTimeout > 0 {
				if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
					dead = true
				}
			}
			if !dead {
				spW := f.tr.StartSpan("server.write", tracing.SrcServer)
				if _, err := conn.Write(f.buf); err != nil {
					dead = true
				} else {
					spW.End()
					s.framesTx.Inc()
					s.bytesTx.Add(int64(len(f.buf)))
				}
			}
			if dead {
				conn.Close()
			}
		}
		if dead {
			f.tr.Finish("connection dead")
		} else {
			f.tr.Finish(f.errStr)
		}
		putBuf(f.buf)
	}
}

// reply writes one v1 response line under the write deadline, reporting
// whether the connection is still usable. The line is encoded into a
// pooled buffer — no json.Marshal, no fresh slice per reply.
func (s *NetServer) reply(conn net.Conn, resp NetResponse) bool {
	return s.replyTrace(conn, resp, nil)
}

// replyTrace is reply plus trace closure: the write span is recorded
// (server-side only; the spans already left in resp) and the trace is
// finished whether or not the write succeeded.
func (s *NetServer) replyTrace(conn net.Conn, resp NetResponse, tr *tracing.Trace) bool {
	buf := appendJSONResponse(getBuf(), resp)
	buf = append(buf, '\n')
	defer putBuf(buf)
	if s.opts.WriteTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
			tr.Finish("connection dead")
			return false
		}
	}
	spW := tr.StartSpan("server.write", tracing.SrcServer)
	_, err := conn.Write(buf)
	if err != nil {
		tr.Finish("connection dead")
		return false
	}
	spW.End()
	tr.Finish(resp.Error)
	return true
}

// readLine reads one newline-terminated line of at most max bytes,
// appending into buf (typically pooled scratch, so steady-state requests
// allocate nothing). An over-long line is consumed through its terminating
// newline and reported via tooLong, so the connection can answer with an
// error and keep serving instead of dying silently (the old bufio.Scanner
// ErrTooLong behavior).
func readLine(br *bufio.Reader, buf []byte, max int) (line []byte, tooLong bool, err error) {
	line = buf
	for {
		frag, err := br.ReadSlice('\n')
		if !tooLong {
			line = append(line, frag...)
			if len(line) > max {
				tooLong = true
				line = line[:0]
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return line[:0], false, err // EOF/timeout/reset; drop any partial line
		}
		return line, tooLong, nil
	}
}

func (s *NetServer) execute(req NetRequest, tr *tracing.Trace) NetResponse {
	resp := NetResponse{ID: req.ID}
	var kind QueryKind
	switch req.Kind {
	case "interval":
		kind = IntervalQuery
	case "original":
		kind = OriginalQuery
	default:
		s.badRequests.Inc()
		resp.Error = fmt.Sprintf("unknown kind %q", req.Kind)
		return resp
	}
	at := req.Start
	if kind == OriginalQuery {
		at = req.At
	}
	wire := s.executeWire(BatchQuery{Kind: kind, Port: req.Port, Queue: req.Queue, Start: at, End: req.End}, tr)
	resp.Error = wire.Error
	// The JSON line is this protocol's edge: flow keys become strings here.
	if len(wire.Counts) > 0 {
		resp.Counts = make(map[string]float64, len(wire.Counts))
		for f, n := range wire.Counts {
			resp.Counts[f.String()] = n
		}
	}
	return resp
}

// executeWire runs one decoded query on the query workers, recording
// stage spans into tr (nil for untraced requests). For OriginalQuery
// the instant travels in Start.
func (s *NetServer) executeWire(q BatchQuery, tr *tracing.Trace) wireReply {
	var res QueryResult
	switch q.Kind {
	case IntervalQuery:
		res = s.qs.intervalTraced(q.Port, q.Start, q.End, tr)
	case OriginalQuery:
		res = s.qs.originalTraced(q.Port, q.Queue, q.Start, tr)
	default:
		s.badRequests.Inc()
		return wireReply{Error: fmt.Sprintf("unknown kind %d", q.Kind)}
	}
	if res.Err != nil {
		return wireReply{Error: res.Err.Error()}
	}
	return wireReply{Counts: res.Counts}
}

// Client-side resilience defaults. Queries are read-only and idempotent, so
// retrying a failed round trip — on the same connection after an overload
// reply, or on a fresh one after an I/O error — is always safe.
const (
	// DefaultDialTimeout is the per-round-trip I/O deadline applied when
	// DialOptions.Timeout is zero: long enough for any real query, short
	// enough that a hung QueryService cannot block a diagnosis forever.
	DefaultDialTimeout = 5 * time.Second
	// DefaultMaxRetries is how many additional attempts a round trip makes
	// after a retryable failure.
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the first retry's backoff; it doubles per
	// retry (with jitter) up to DefaultBackoffMax.
	DefaultBackoffBase = 20 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff between retries.
	DefaultBackoffMax = time.Second
)

// DialOptions tunes a QueryClient connection.
type DialOptions struct {
	// Timeout is the I/O deadline applied to each round-trip attempt
	// (write + read). 0 means DefaultDialTimeout; negative disables
	// deadlines.
	Timeout time.Duration
	// MaxRetries is the retry budget per round trip: after the first
	// attempt fails with a retryable error (I/O error, desync, overload),
	// up to MaxRetries further attempts are made, redialing if the
	// connection was poisoned. 0 means DefaultMaxRetries; negative
	// disables retries.
	MaxRetries int
	// BackoffBase is the backoff before the first retry, doubling per
	// subsequent retry with jitter in [d/2, d]. 0 means
	// DefaultBackoffBase; negative disables backoff waits.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. 0 means DefaultBackoffMax;
	// a value below BackoffBase (including negative) is clamped up to
	// BackoffBase, so the cap can never invert the backoff window.
	BackoffMax time.Duration
	// Seed seeds the jitter PRNG so chaos tests are reproducible. 0 means
	// a fixed default seed (the client's behavior is deterministic for a
	// given fault sequence).
	Seed int64
	// Dialer, if non-nil, replaces net.DialTimeout for the initial dial
	// and every reconnect — the hook fault-injection harnesses use.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Timeouts, Retries, and Reconnects, if non-nil, are incremented for
	// every round-trip I/O timeout, retry attempt, and successful redial
	// respectively — wire them to a telemetry registry's
	// printqueue_query_client_{timeouts,retries,reconnects}_total to fold
	// client-side resilience into the query metrics. The client also
	// counts internally; see QueryClient.Timeouts/Retries/Reconnects.
	Timeouts   *telemetry.Counter
	Retries    *telemetry.Counter
	Reconnects *telemetry.Counter
	// Tracer, if non-nil, traces round trips: sampled queries carry
	// their trace id on the wire and absorb the server's stage spans
	// into one joined trace; unsampled queries still feed the tracer's
	// always-on slowlog. nil (the default) keeps tracing entirely off
	// the hot path.
	Tracer *tracing.Tracer
}

// errDesync marks a response that could not be matched to its request (a
// mismatched id or an undecodable line). The connection is poisoned — its
// buffered bytes can no longer be trusted — and the attempt is retried on a
// fresh connection, which is safe because queries are idempotent.
var errDesync = errors.New("control: query response desynchronized from request")

// QueryClient is a client for the NetServer protocol.
//
// Every request carries a monotonically increasing id that the server
// echoes; a response whose id does not match the in-flight request is never
// returned to the caller. After any I/O error the connection is poisoned
// and closed — its buffered bytes could belong to an abandoned round trip —
// and the next attempt redials. This fixes the classic framing-desync bug
// where a timed-out read left the previous query's response in the buffer
// to be returned as the answer to the next query.
type QueryClient struct {
	addr        string
	timeout     time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	dialer      func(addr string, timeout time.Duration) (net.Conn, error)

	closed atomic.Bool

	// mu serializes round trips: one request/response exchange owns the
	// connection (and retry loop) at a time.
	mu   sync.Mutex
	conn net.Conn
	// br and wbuf persist across redials: adopt resets the reader onto the
	// new connection and the encode buffer is reused in place, so a
	// flapping connection no longer allocates a fresh bufio.Reader +
	// json.Encoder pair per redial while the old pair's buffers linger.
	br     *bufio.Reader
	wbuf   []byte
	broken bool
	lastID uint64
	jit    *jitterSource
	sleep  func(time.Duration) // test hook; time.Sleep

	timeouts, retries, reconnects      atomic.Int64
	timeoutCtr, retryCtr, reconnectCtr *telemetry.Counter

	tracer *tracing.Tracer
}

// Dial connects to a NetServer with default options.
func Dial(addr string) (*QueryClient, error) {
	return DialOpts(addr, DialOptions{})
}

// resolved applies the option defaults shared by the JSON QueryClient and
// the binary MuxClient.
func (o DialOptions) resolved() (timeout time.Duration, maxRetries int, backoffBase, backoffMax time.Duration, seed int64, dialer func(string, time.Duration) (net.Conn, error)) {
	timeout = o.Timeout
	if timeout == 0 {
		timeout = DefaultDialTimeout
	}
	maxRetries = o.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoffBase = o.BackoffBase
	if backoffBase == 0 {
		backoffBase = DefaultBackoffBase
	} else if backoffBase < 0 {
		backoffBase = 0
	}
	backoffMax = o.BackoffMax
	if backoffMax == 0 {
		backoffMax = DefaultBackoffMax
	}
	seed = o.Seed
	if seed == 0 {
		seed = 1
	}
	dialer = o.Dialer
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return
}

// DialOpts connects to a NetServer with explicit options. The initial dial
// is not retried (so a misconfigured address fails fast); the retry budget
// applies to round trips.
func DialOpts(addr string, opts DialOptions) (*QueryClient, error) {
	timeout, maxRetries, backoffBase, backoffMax, seed, dialer := opts.resolved()
	c := &QueryClient{
		addr:         addr,
		timeout:      timeout,
		maxRetries:   maxRetries,
		backoffBase:  backoffBase,
		backoffMax:   backoffMax,
		dialer:       dialer,
		jit:          newJitterSource(seed),
		sleep:        time.Sleep,
		timeoutCtr:   opts.Timeouts,
		retryCtr:     opts.Retries,
		reconnectCtr: opts.Reconnects,
		tracer:       opts.Tracer,
	}
	conn, err := dialer(addr, max(timeout, 0))
	if err != nil {
		return nil, err
	}
	c.adopt(conn)
	return c, nil
}

// adopt installs a fresh connection (caller holds mu, or the client is not
// yet shared), reusing the previous connection's read buffer.
func (c *QueryClient) adopt(conn net.Conn) {
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 4096)
	} else {
		c.br.Reset(conn)
	}
	c.broken = false
}

// Close closes the connection. Subsequent round trips fail with
// net.ErrClosed instead of redialing.
func (c *QueryClient) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Timeouts returns how many round-trip attempts have failed with an I/O
// timeout.
func (c *QueryClient) Timeouts() int64 { return c.timeouts.Load() }

// Retries returns how many round-trip attempts were retries of a failed
// attempt.
func (c *QueryClient) Retries() int64 { return c.retries.Load() }

// Reconnects returns how many times the client redialed after poisoning a
// connection.
func (c *QueryClient) Reconnects() int64 { return c.reconnects.Load() }

// roundTrip performs one logical query, with retries and (when a tracer
// is configured) end-to-end tracing: sampled queries get a client trace
// whose id travels on the wire, and every trace — including ones whose
// round trips fail permanently — is orphan-closed here. Unsampled
// queries feed the tracer's always-on slowlog.
func (c *QueryClient) roundTrip(req NetRequest) (map[string]float64, error) {
	if c.tracer == nil {
		return c.roundTripTraced(req, nil)
	}
	t0 := time.Now()
	tr := c.tracer.Start(req.Kind)
	req.Trace = tr.ID() // 0 when unsampled: the wire stays trace-free
	counts, err := c.roundTripTraced(req, tr)
	if tr != nil {
		tr.FinishErr(err)
	} else {
		c.tracer.MaybeSlow(req.Kind, t0, time.Since(t0), err)
	}
	return counts, err
}

func (c *QueryClient) roundTripTraced(req NetRequest, tr *tracing.Trace) (map[string]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if c.retryCtr != nil {
				c.retryCtr.Inc()
			}
			if d := c.backoff(attempt); d > 0 {
				c.sleep(d)
			}
		}
		if c.closed.Load() {
			return nil, net.ErrClosed
		}
		if c.conn == nil || c.broken {
			if err := c.redialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		counts, err := c.attempt(req, tr)
		if err == nil {
			return counts, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// attempt performs one request/response exchange on the live connection.
// Any failure that leaves the connection's framing untrustworthy poisons it.
func (c *QueryClient) attempt(req NetRequest, tr *tracing.Trace) (map[string]float64, error) {
	c.lastID++
	req.ID = c.lastID
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			c.poison()
			return nil, err
		}
	}
	spE := tr.StartSpan("client.encode", tracing.SrcClient)
	c.wbuf = appendJSONRequest(c.wbuf[:0], req)
	c.wbuf = append(c.wbuf, '\n')
	spE.End()
	spW := tr.StartSpan("client.write", tracing.SrcClient)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.poison()
		return nil, c.noteTimeout(err)
	}
	spW.End()
	spA := tr.StartSpan("client.await", tracing.SrcClient)
	for {
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			c.poison()
			return nil, c.noteTimeout(err)
		}
		var resp NetResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			c.poison()
			return nil, fmt.Errorf("%w: undecodable response: %v", errDesync, err)
		}
		if resp.ID != 0 && resp.ID < req.ID {
			// A late response to a round trip this client already
			// abandoned: discard it and keep reading. (Poisoning on
			// error makes this rare — it needs an error path that left
			// the connection alive — but ids make it harmless.)
			continue
		}
		if resp.ID != 0 && resp.ID != req.ID {
			c.poison()
			return nil, fmt.Errorf("%w: response id %d for request id %d", errDesync, resp.ID, req.ID)
		}
		spA.End()
		tr.AddSpans(resp.Spans)
		if resp.Error != "" {
			if resp.Error == ErrOverloaded.Error() {
				return nil, ErrOverloaded
			}
			return nil, errors.New(resp.Error)
		}
		if resp.Counts == nil {
			// An empty result omits "counts" on the wire; normalize so
			// callers can distinguish "no culprits" from a zero value.
			resp.Counts = make(map[string]float64)
		}
		return resp.Counts, nil
	}
}

// poison marks the connection unusable and closes it: after any I/O error
// its buffered bytes may belong to an abandoned round trip.
func (c *QueryClient) poison() {
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// redialLocked replaces a poisoned (or never-established) connection.
func (c *QueryClient) redialLocked() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	conn, err := c.dialer(c.addr, max(c.timeout, 0))
	if err != nil {
		return err
	}
	c.adopt(conn)
	c.reconnects.Add(1)
	if c.reconnectCtr != nil {
		c.reconnectCtr.Inc()
	}
	return nil
}

// backoff returns the jittered exponential backoff before retry attempt n
// (n >= 1): base doubled per retry, capped at backoffMax with a
// shift clamp so the doubling can never overflow, jittered uniformly in
// [d/2, d]. See backoffDur.
func (c *QueryClient) backoff(attempt int) time.Duration {
	return backoffDur(c.backoffBase, c.backoffMax, attempt, c.jit)
}

// retryable reports whether a round-trip failure may be retried. Transport
// failures and desyncs are retried on a fresh connection; an overload reply
// is retried after backoff on the same connection. Application-level errors
// (unknown port, empty interval, ...) are returned to the caller as-is.
func retryable(err error) bool {
	if errors.Is(err, ErrOverloaded) || errors.Is(err, errDesync) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// noteTimeout counts err if it is an I/O timeout, and passes it through.
func (c *QueryClient) noteTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.timeouts.Add(1)
		if c.timeoutCtr != nil {
			c.timeoutCtr.Inc()
		}
	}
	return err
}

// Interval queries per-flow packet counts over [start, end) on a port.
func (c *QueryClient) Interval(port int, start, end uint64) (map[string]float64, error) {
	return c.roundTrip(NetRequest{Kind: "interval", Port: port, Start: start, End: end})
}

// Original queries the original culprits at time t on a port/queue.
func (c *QueryClient) Original(port, queue int, t uint64) (map[string]float64, error) {
	return c.roundTrip(NetRequest{Kind: "original", Port: port, Queue: queue, At: t})
}
