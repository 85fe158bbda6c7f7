package control

import (
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

// MuxClient is the query client: one TCP connection, many requests in
// flight. Callers from any number of goroutines issue queries
// concurrently; each request is tagged with a monotonically increasing id,
// written as one binary frame, and parked in a per-id pending map until
// the reader goroutine delivers the matching reply — so a connection
// sustains pipelined throughput bounded by the server's execution rate,
// not by round-trip latency.
//
// Queries are read-only and idempotent, so a failed round trip is always
// safe to retry. The resilience model:
//
//   - Ids make late replies harmless: a reply whose id is no longer
//     pending (its waiter timed out and moved on) is discarded, never
//     surfaced to the wrong caller.
//   - Any transport failure — an I/O error, a torn or undecodable frame, a
//     reply whose result count is not its request's query count —
//     poisons the connection: every pending request fails with a
//     retryable error, the socket is closed, and the next attempt
//     redials. Frames cannot resynchronize mid-stream, so poisoning is
//     the only safe response to a framing fault.
//   - A round-trip timeout also poisons: queries execute in microseconds,
//     so a silent server almost always means a dead or wedged peer, and
//     failing the other pending requests into their own retry loops is
//     cheaper than letting them wait out their full deadlines.
//   - Retries back off exponentially with jitter (backoff.go), and an
//     overloaded reply stays retryable on the same connection (framing is
//     intact; the server answered).
type MuxClient struct {
	addr        string
	timeout     time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	dialer      func(addr string, timeout time.Duration) (net.Conn, error)

	closed atomic.Bool

	// mu guards the connection lifecycle, the id counter, and the pending
	// map. It is held only for bookkeeping — never across I/O — so round
	// trips overlap freely.
	mu      sync.Mutex
	conn    net.Conn
	gen     uint64 // bumped per adopted connection; stale poisons no-op
	broken  bool
	nextID  uint64
	pending map[uint64]muxWaiter

	// wmu serializes frame writes (a frame must hit the wire contiguously).
	wmu sync.Mutex

	jit   *jitterSource
	sleep func(time.Duration) // test hook; time.Sleep

	timeouts, retries, reconnects      atomic.Int64
	inflight                           atomic.Int64
	timeoutCtr, retryCtr, reconnectCtr *telemetry.Counter

	// tracer samples round trips into end-to-end traces (nil = off). A
	// sampled request carries its trace id, and the reply's server-side
	// spans are folded into the client trace.
	tracer *tracing.Tracer
}

// muxWaiter is a round trip parked in the pending map: where its reply goes
// and how many results that reply must carry.
type muxWaiter struct {
	ch chan muxReply
	n  int
}

// muxReply is what the reader goroutine delivers to a waiting round trip.
type muxReply struct {
	results []BatchResult  // one per query, in request order
	spans   []tracing.Span // server-side spans from a traced request
	err     error          // transport-level failure (the connection died)
}

// muxTimeoutError is the round-trip deadline failure; it satisfies
// net.Error so retryable and noteTimeout treat it like any other I/O
// timeout.
type muxTimeoutError struct{}

func (muxTimeoutError) Error() string   { return "control: mux round trip timed out" }
func (muxTimeoutError) Timeout() bool   { return true }
func (muxTimeoutError) Temporary() bool { return true }

var errMuxTimeout net.Error = muxTimeoutError{}

// errDesync marks a connection whose replies can no longer be matched to
// requests. The connection is poisoned — its buffered bytes cannot be
// trusted — and the attempt is retried on a fresh connection.
var errDesync = errors.New("control: query response desynchronized from request")

// errPoisoned is delivered to pending round trips when a concurrent
// failure poisons the connection out from under them. It wraps errDesync
// so it is retryable, without being counted as those waiters' own timeout.
var errPoisoned = fmt.Errorf("%w: connection poisoned by a concurrent failure", errDesync)

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

// Client-side resilience defaults.
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

// DialOptions tunes a MuxClient (and, for its dial, a checkpoint
// subscription: DialCheckpoints).
type DialOptions struct {
	// Timeout is the deadline applied to each round-trip attempt (write +
	// await). 0 means DefaultDialTimeout; negative disables deadlines.
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
	// every round-trip timeout, retry attempt, and successful redial
	// respectively — wire them to a telemetry registry's
	// printqueue_query_client_{timeouts,retries,reconnects}_total to fold
	// client-side resilience into the query metrics. The client also
	// counts internally; see MuxClient.Timeouts/Retries/Reconnects.
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

// resolved applies the option defaults.
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

// DialMux connects a client with default options.
func DialMux(addr string) (*MuxClient, error) {
	return DialMuxOpts(addr, DialOptions{})
}

// DialMuxOpts connects a MuxClient with explicit options. The initial dial
// is not retried (so a misconfigured address fails fast); the retry budget
// applies per round trip.
func DialMuxOpts(addr string, opts DialOptions) (*MuxClient, error) {
	timeout, maxRetries, backoffBase, backoffMax, seed, dialer := opts.resolved()
	c := &MuxClient{
		addr:         addr,
		timeout:      timeout,
		maxRetries:   maxRetries,
		backoffBase:  backoffBase,
		backoffMax:   backoffMax,
		dialer:       dialer,
		pending:      make(map[uint64]muxWaiter),
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
	c.mu.Lock()
	c.adoptLocked(conn)
	c.mu.Unlock()
	return c, nil
}

// adoptLocked installs a fresh connection and starts its reader goroutine.
// Caller holds mu.
func (c *MuxClient) adoptLocked(conn net.Conn) {
	c.conn = conn
	c.gen++
	c.broken = false
	go c.readLoop(conn, c.gen)
}

// Close closes the connection and fails every pending round trip.
// Subsequent queries fail with net.ErrClosed instead of redialing.
func (c *MuxClient) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failPendingLocked(net.ErrClosed)
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.broken = true
	return err
}

// Timeouts returns how many round trips have hit their deadline.
func (c *MuxClient) Timeouts() int64 { return c.timeouts.Load() }

// Retries returns how many round-trip attempts were retries.
func (c *MuxClient) Retries() int64 { return c.retries.Load() }

// Reconnects returns how many times the client redialed after poisoning a
// connection.
func (c *MuxClient) Reconnects() int64 { return c.reconnects.Load() }

// InFlight returns how many round trips are currently outstanding.
func (c *MuxClient) InFlight() int64 { return c.inflight.Load() }

// readLoop drains reply frames for one connection generation, delivering
// each to its pending waiter. Any read or decode failure poisons the
// connection; a frame the reader cannot make sense of fails the pending
// round trips as a desync, which they retry on a fresh connection.
func (c *MuxClient) readLoop(conn net.Conn, gen uint64) {
	br := getReader(conn)
	defer putReader(br)
	scratch := getBuf()
	defer func() { putBuf(scratch) }()
	for {
		op, payload, err := readFrame(br, scratch, maxFramePayload)
		scratch = payload[:0]
		if isFrameErr(err) {
			err = fmt.Errorf("%w: %w", errDesync, err)
		}
		if err != nil {
			c.poison(gen, err)
			return
		}
		if op != opResponse {
			err = fmt.Errorf("unknown op %#x", op)
		}
		var id uint64
		var reply muxReply
		if err == nil {
			id, reply.spans, reply.results, err = decodeResponse(payload)
		}
		if err != nil {
			c.poison(gen, fmt.Errorf("%w: %w", errDesync, err))
			return
		}
		c.mu.Lock()
		w, ok := c.pending[id]
		matched := ok && len(reply.results) == w.n
		if matched {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok && !matched {
			// A reply that does not answer its request query for query is
			// no answer to it: the stream is no longer matched to the
			// requests, as after an undecodable frame.
			c.poison(gen, fmt.Errorf("%w: %d results answer a request of %d queries", errDesync, len(reply.results), w.n))
			return
		}
		if ok {
			w.ch <- reply // buffered; a late reply with no waiter is discarded
		}
	}
}

// poison fails every pending round trip of generation gen and closes the
// connection. A stale generation (the client already redialed) is a no-op,
// so an old reader unwinding cannot kill a fresh connection.
func (c *MuxClient) poison(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
	c.failPendingLocked(err)
}

func (c *MuxClient) failPendingLocked(err error) {
	for id, w := range c.pending {
		delete(c.pending, id)
		w.ch <- muxReply{err: err}
	}
}

// register ensures a live connection and parks a new id for a request of n
// queries in the pending map, returning the connection to write to and its
// generation.
func (c *MuxClient) register(n int) (conn net.Conn, gen, id uint64, ch chan muxReply, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, 0, 0, nil, net.ErrClosed
	}
	if c.conn == nil || c.broken {
		if c.conn != nil {
			c.conn.Close()
		}
		conn, err := c.dialer(c.addr, max(c.timeout, 0))
		if err != nil {
			return nil, 0, 0, nil, err
		}
		c.adoptLocked(conn)
		c.reconnects.Add(1)
		if c.reconnectCtr != nil {
			c.reconnectCtr.Inc()
		}
	}
	c.nextID++
	id = c.nextID
	ch = make(chan muxReply, 1)
	c.pending[id] = muxWaiter{ch: ch, n: n}
	return c.conn, c.gen, id, ch, nil
}

// unregister abandons a pending id (deadline expired). The eventual reply,
// if any, is discarded by the reader.
func (c *MuxClient) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// writeFrame writes one frame under the write deadline, serialized against
// concurrent senders, and recycles buf.
func (c *MuxClient) writeFrame(conn net.Conn, buf []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	defer putBuf(buf)
	if c.timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(buf)
	return err
}

// await blocks for the reply or the round-trip deadline. On deadline it
// poisons the connection (see the type comment) and reports errMuxTimeout.
func (c *MuxClient) await(gen, id uint64, ch chan muxReply) (muxReply, error) {
	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return r, c.noteTimeout(r.err)
		}
		return r, nil
	case <-timeoutC:
		c.unregister(id)
		c.timeouts.Add(1)
		if c.timeoutCtr != nil {
			c.timeoutCtr.Inc()
		}
		c.poison(gen, errPoisoned)
		return muxReply{}, errMuxTimeout
	}
}

// noteTimeout counts err if it is an I/O timeout, and passes it through.
func (c *MuxClient) noteTimeout(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		c.timeouts.Add(1)
		if c.timeoutCtr != nil {
			c.timeoutCtr.Inc()
		}
	}
	return err
}

// backoff returns the jittered wait before retry attempt n (n >= 1), see
// backoffDur; the jitter source is lock-free because round trips retry
// from many goroutines at once.
func (c *MuxClient) backoff(attempt int) time.Duration {
	return backoffDur(c.backoffBase, c.backoffMax, attempt, c.jit)
}

// roundTrip sends qs as one request under the retry budget and returns
// their results in request order. A reply whose every result is
// ErrOverloaded is a whole-request shed and is retried like a transport
// failure; other per-query errors come back in the results. When tr is
// non-nil the request carries its id, each attempt's encode, write, and
// await phases are recorded as client spans, and the reply's server spans
// are folded in (retried attempts each leave their own spans, so a trace
// shows every wire attempt the request cost).
func (c *MuxClient) roundTrip(qs []BatchQuery, tr *tracing.Trace) ([]BatchResult, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
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
		conn, gen, id, ch, err := c.register(len(qs))
		if err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, err
			}
			continue
		}
		spE := tr.StartSpan("client.encode", tracing.SrcClient)
		buf := appendRequest(getBuf(), id, tr.ID(), qs)
		spE.End()
		spW := tr.StartSpan("client.write", tracing.SrcClient)
		err = c.writeFrame(conn, buf)
		spW.End()
		if err != nil {
			c.unregister(id)
			c.poison(gen, err)
			lastErr = c.noteTimeout(err)
			if !retryable(err) {
				return nil, err
			}
			continue
		}
		spA := tr.StartSpan("client.await", tracing.SrcClient)
		reply, err := c.await(gen, id, ch)
		spA.End()
		if err == nil {
			tr.AddSpans(reply.spans)
			if !allShed(reply.results) {
				return reply.results, nil
			}
			err = ErrOverloaded
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// allShed reports whether every result of a reply is ErrOverloaded.
func allShed(rs []BatchResult) bool {
	for i := range rs {
		if rs[i].Err != ErrOverloaded {
			return false
		}
	}
	return true
}

// do runs one request under the client's tracer, if any: a sampled request
// is traced end to end, an unsampled one only feeds the slow-query log.
func (c *MuxClient) do(qs []BatchQuery) ([]BatchResult, error) {
	if c.tracer == nil {
		return c.roundTrip(qs, nil)
	}
	name := requestName(qs)
	t0 := time.Now()
	tr := c.tracer.Start(name)
	rs, err := c.roundTrip(qs, tr)
	traceErr := err
	if err == nil && len(rs) == 1 {
		traceErr = rs[0].Err
	}
	if tr != nil {
		tr.FinishErr(traceErr)
	} else {
		c.tracer.MaybeSlow(name, t0, time.Since(t0), traceErr)
	}
	return rs, err
}

// one unpacks the reply to a request of one query.
func one(rs []BatchResult, err error) (map[string]float64, error) {
	if err != nil {
		return nil, err
	}
	return rs[0].Counts, rs[0].Err
}

// Interval queries per-flow packet counts over [start, end) on a port.
func (c *MuxClient) Interval(port int, start, end uint64) (map[string]float64, error) {
	return one(c.do([]BatchQuery{{Kind: IntervalQuery, Port: port, Start: start, End: end}}))
}

// IntervalTraced is Interval recording into a caller-owned trace (nil =
// untraced) that is NOT finished here. The trace's id travels on the wire
// so the server's spans fold into it; the caller finishes the trace — this
// lets one fleet-level trace absorb every hop's round trip.
func (c *MuxClient) IntervalTraced(port int, start, end uint64, tr *tracing.Trace) (map[string]float64, error) {
	return one(c.roundTrip([]BatchQuery{{Kind: IntervalQuery, Port: port, Start: start, End: end}}, tr))
}

// Original queries the original culprits at time t on a port/queue.
func (c *MuxClient) Original(port, queue int, t uint64) (map[string]float64, error) {
	return one(c.do([]BatchQuery{{Kind: OriginalQuery, Port: port, Queue: queue, Start: t}}))
}

// Batch sends many queries in a single frame and returns their answers in
// request order, one frame back. Transport failures (and whole-batch
// overload) are retried under the usual budget; per-query application
// errors come back in the matching BatchResult.
func (c *MuxClient) Batch(queries []BatchQuery) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if len(queries) > maxBatch {
		return nil, errFrameSize
	}
	return c.do(queries)
}
