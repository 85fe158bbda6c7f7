package control

import (
	"errors"
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
// The listener speaks one protocol: length-prefixed binary frames (wire.go
// has the layout) with true multiplexing — many requests in flight per
// connection, each executed on a goroutine of its own (the query server
// bounds how many run at once) and answered in completion order. A request
// carries one query or many and is answered by one reply frame.
// MuxClient is the matching client. A connection whose bytes are not a
// valid frame is counted as a bad request and dropped without a reply.
//
// The server echoes each request's id verbatim so a client that abandoned
// an earlier round trip (e.g. after a timeout) can never mistake the late
// reply for the answer to a newer query.
type NetServer struct {
	qs   *QueryServer
	ln   net.Listener
	opts ServeOptions

	connections   *telemetry.Counter
	requests      *telemetry.Counter
	badRequests   *telemetry.Counter
	shed          *telemetry.Counter
	acceptRetries *telemetry.Counter
	framesRx      *telemetry.Counter
	framesTx      *telemetry.Counter
	bytesRx       *telemetry.Counter
	bytesTx       *telemetry.Counter
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

// ErrOverloaded is returned (and sent on the wire as an error reply carrying
// its text) when the query backlog exceeds the server's shed limit. It is
// retryable: the request was rejected before execution, so a client may back
// off and resend on the same connection.
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
	// replies ErrOverloaded instead of queueing.
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
	// ErrOverloaded immediately. 0 means DefaultShedLimit;
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
			"Queries received over TCP, one per query of a request."),
		badRequests: reg.Counter("printqueue_netserver_bad_requests_total",
			"TCP query requests rejected as malformed."),
		shed: reg.Counter("printqueue_netserver_shed_total",
			"Query requests rejected with an overloaded reply because the backlog exceeded the shed limit."),
		acceptRetries: reg.Counter("printqueue_netserver_accept_retries_total",
			"Transient accept failures survived by the listener's retry loop."),
		framesRx: reg.Counter("printqueue_netserver_frames_total",
			"Binary protocol frames processed.", telemetry.L("dir", "rx")),
		framesTx: reg.Counter("printqueue_netserver_frames_total",
			"Binary protocol frames processed.", telemetry.L("dir", "tx")),
		bytesRx: reg.Counter("printqueue_netserver_frame_bytes_total",
			"Binary protocol bytes processed, headers included.", telemetry.L("dir", "rx")),
		bytesTx: reg.Counter("printqueue_netserver_frame_bytes_total",
			"Binary protocol bytes processed, headers included.", telemetry.L("dir", "tx")),
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

// requestName is the trace root name of a request: its query's kind for a
// request of one query, "batch" for more.
func requestName(qs []BatchQuery) string {
	if len(qs) == 1 {
		return kindName(qs[0].Kind)
	}
	return "batch"
}

func (s *NetServer) release(n int64) {
	s.inflight.Add(-n)
	s.inflightGauge.Add(-n)
}

// handle serves one connection: a reader loop decodes frames and starts a
// goroutine per request, which executes it under a query-server slot, and
// a writer goroutine streams replies back in completion order. A frame
// that fails to decode means the stream can no longer be trusted (frames
// cannot resynchronize), so the connection is dropped; the client treats
// that as poison and redials.
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
		case opRequest:
			id, traceID, qs, err := decodeRequest(payload)
			if err != nil {
				s.badRequests.Inc()
				break loop
			}
			n := int64(len(qs))
			s.requests.Add(n)
			var tr *tracing.Trace
			if traceID != 0 {
				tr = s.serverTrace(requestName(qs), traceID)
			}
			spD := tr.StartSpan("server.dispatch", tracing.SrcServer)
			// A request is admitted whole: each query counts one unit
			// against the shed limit, and an over-limit request sheds in a
			// single reply rather than executing partially.
			if !s.admit(n) {
				spD.End()
				resps := make([]wireReply, n)
				for i := range resps {
					resps[i].Error = ErrOverloaded.Error()
				}
				out <- outFrame{buf: appendResponse(getBuf(), id, tr.Spans(), resps), tr: tr, errStr: ErrOverloaded.Error()}
				continue
			}
			reqWG.Add(1)
			s.connInflight.Max(perConn.Add(n))
			go s.serve(id, qs, tr, spD, out, &reqWG, &perConn)
		case opSubscribe:
			since, err := decodeSubscribe(payload)
			if err != nil || subscribed {
				s.badRequests.Inc()
				break loop
			}
			if s.qs.sys.hist == nil {
				// No log to follow: refused, but left to the idle deadline,
				// as an older collector redials a closed one at once.
				s.badRequests.Inc()
				continue
			}
			subscribed = true
			// A push stream has no request cadence, so the idle deadline
			// would kill a healthy but quiet subscription; clear it. The
			// reader stays blocked as the connection-death detector.
			conn.SetReadDeadline(time.Time{})
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				s.pushCheckpoints(conn, since, out, stopPush)
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

// serve executes one admitted request and answers it with one frame, in
// query order. A request of one query runs on this goroutine; a larger
// one runs its queries concurrently, one goroutine each.
func (s *NetServer) serve(id uint64, qs []BatchQuery, tr *tracing.Trace, spD tracing.SpanHandle, out chan<- outFrame, reqWG *sync.WaitGroup, perConn *atomic.Int64) {
	defer reqWG.Done()
	spD.End() // dispatch = decode + admit + handoff to this goroutine
	var resps []wireReply
	var errStr string
	if len(qs) == 1 {
		resps = []wireReply{s.executeWire(qs[0], tr)}
		errStr = resps[0].Error
	} else {
		// A variable of its own, so that the goroutines capturing it do not
		// move the one-query slice above to the heap.
		all := make([]wireReply, len(qs))
		var wg sync.WaitGroup
		for i := range qs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				all[i] = s.executeWire(qs[i], tr)
			}(i)
		}
		wg.Wait()
		resps = all
	}
	s.release(int64(len(qs)))
	perConn.Add(int64(-len(qs)))
	// A traced reply carries the spans recorded so far; the write span
	// lands afterwards and is only visible server-side.
	out <- outFrame{buf: appendResponse(getBuf(), id, tr.Spans(), resps), tr: tr, errStr: errStr}
}

// errPushStopped ends a subscription's Follow when its connection is
// unwinding.
var errPushStopped = errors.New("control: checkpoint push stopped")

// pushCheckpoints drives one checkpoint subscription: it follows the
// switch's log from since (histstore.Store.Follow) and frames each record
// onto the connection's writer, beside any query replies. Records the log
// held at the start are flagged as replayed; sequence numbers are assigned
// at send time, so replayed and live frames share one sequence. The log is
// the subscriber's queue: one that stops reading holds this goroutine on
// the writer and nothing else. If the follow fails (the store closed), the
// connection is closed and the subscriber redials from its watermark.
func (s *NetServer) pushCheckpoints(conn net.Conn, since uint64, out chan<- outFrame, stop <-chan struct{}) {
	var seq uint64
	err := s.qs.sys.hist.Follow(since, stop, func(payload []byte, port int, freezeTime, prevFreeze uint64, special, logged bool) error {
		seq++
		var flags byte
		if logged {
			flags |= pushFlagReplay
		}
		if special {
			flags |= pushFlagSpecial
		}
		buf := appendCheckpointFrame(getBuf(), seq, port, freezeTime, prevFreeze, flags, payload)
		select {
		case out <- outFrame{buf: buf}:
			return nil
		case <-stop:
			putBuf(buf)
			return errPushStopped
		}
	})
	if err != nil && !errors.Is(err, errPushStopped) {
		conn.Close()
	}
}

// connWriter is the per-connection writer goroutine: it streams completed
// replies in the order they finish, under the write deadline, recycling
// each frame buffer. After a write error it
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

// executeWire runs one decoded query on the calling goroutine once the
// query server grants it a slot, recording stage spans into tr (nil for
// untraced requests). For OriginalQuery the instant travels in Start.
func (s *NetServer) executeWire(q BatchQuery, tr *tracing.Trace) wireReply {
	res := s.qs.submit(q, tr)
	if res.Err != nil {
		return wireReply{Error: res.Err.Error()}
	}
	return wireReply{Counts: res.Counts}
}
