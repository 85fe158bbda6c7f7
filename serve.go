package printqueue

import (
	"fmt"
	"time"

	"printqueue/internal/core/control"
)

// QueryService is a running TCP endpoint for asynchronous queries: the
// paper's Figure-3 path where higher-layer applications send requests to
// the analysis program on the switch CPU. The listener speaks one protocol,
// length-prefixed binary frames with many requests in flight per connection;
// MuxQueryClient is its client.
type QueryService struct {
	qs  *control.QueryServer
	srv *control.NetServer
}

// ServeOptions tunes the TCP query listener's resilience behavior.
type ServeOptions struct {
	// IdleTimeout closes a connection that sends no request for this long.
	// 0 means the 2m default; negative disables the idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 means the 10s default;
	// negative disables it.
	WriteTimeout time.Duration
	// ShedLimit bounds concurrently executing requests; beyond it the
	// server replies "overloaded" instead of queueing (counted in
	// printqueue_netserver_shed_total). 0 means the default of 256;
	// negative disables shedding.
	ShedLimit int
}

// Serve starts a TCP listener on addr (use "127.0.0.1:0" to pick a free
// port) and lets up to workers queries execute at once, each on the
// goroutine that received it. Queries run concurrently with the data
// plane; the per-packet path stays lock-free.
func (s *System) Serve(addr string, workers int) (*QueryService, error) {
	return s.ServeOpts(addr, workers, ServeOptions{})
}

// ServeOpts is Serve with explicit listener options.
func (s *System) ServeOpts(addr string, workers int, opts ServeOptions) (*QueryService, error) {
	qs := control.NewQueryServer(s.inner)
	qs.Start(workers)
	srv, err := control.ServeQueriesOpts(addr, qs, control.ServeOptions{
		IdleTimeout:  opts.IdleTimeout,
		WriteTimeout: opts.WriteTimeout,
		ShedLimit:    opts.ShedLimit,
	})
	if err != nil {
		qs.Stop()
		return nil, err
	}
	return &QueryService{qs: qs, srv: srv}, nil
}

// Addr returns the listening address.
func (q *QueryService) Addr() string { return q.srv.Addr().String() }

// Close stops the listener and the query server, waiting for executing
// queries.
func (q *QueryService) Close() error {
	err := q.srv.Close()
	q.qs.Stop()
	return err
}

// DialOptions tunes a MuxQueryClient connection.
type DialOptions struct {
	// Timeout is the per-round-trip I/O deadline. 0 means the 5s default;
	// negative disables deadlines entirely.
	Timeout time.Duration
	// MaxRetries bounds automatic retries after a retryable failure
	// (timeout, reset, overload). 0 means the default of 2; negative
	// disables retries.
	MaxRetries int
	// BackoffBase is the first retry delay; it doubles per attempt with
	// jitter. 0 means the 20ms default; negative disables backoff sleeps.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay. 0 means the 1s default.
	BackoffMax time.Duration
	// Tracer, when non-nil, samples this client's queries into end-to-end
	// traces: sampled queries carry their trace id to the server, and the
	// reply brings the server-side spans back into the same trace.
	// Unsampled queries stay on the untraced wire path and only feed the
	// tracer's slow-query log. See NewTracer.
	Tracer *Tracer
}

// MuxQueryClient talks to a QueryService over TCP with true multiplexing:
// many queries may be in flight on one connection at once (call it
// concurrently from any number of goroutines), and Batch answers many
// queries with a single frame in each direction. Every round trip carries a
// deadline (default 5s) so a hung or partitioned QueryService fails a
// diagnosis quickly instead of blocking it forever. Queries are idempotent,
// so failed round trips are retried automatically on a fresh connection with
// exponential backoff (default 2 retries); requests and replies carry
// matching ids, so a reply delayed past its deadline can never be mistaken
// for the answer to a later query.
type MuxQueryClient struct {
	inner *control.MuxClient
}

// DialQueriesMux connects to a QueryService with default options.
func DialQueriesMux(addr string) (*MuxQueryClient, error) {
	return DialQueriesMuxOpts(addr, DialOptions{})
}

// DialQueriesMuxOpts connects to a QueryService with explicit options.
func DialQueriesMuxOpts(addr string, opts DialOptions) (*MuxQueryClient, error) {
	inner, err := control.DialMuxOpts(addr, control.DialOptions{
		Timeout:     opts.Timeout,
		MaxRetries:  opts.MaxRetries,
		BackoffBase: opts.BackoffBase,
		BackoffMax:  opts.BackoffMax,
		Tracer:      opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &MuxQueryClient{inner: inner}, nil
}

// Close closes the connection and fails any in-flight queries.
func (c *MuxQueryClient) Close() error { return c.inner.Close() }

// Timeouts returns how many round trips have failed with an I/O timeout.
// The server-side view of query health lives on the ops endpoint
// (printqueue_query_* metrics).
func (c *MuxQueryClient) Timeouts() int64 { return c.inner.Timeouts() }

// Retries returns how many retry attempts this client has made.
func (c *MuxQueryClient) Retries() int64 { return c.inner.Retries() }

// Reconnects returns how many times this client has redialed after a
// connection was poisoned.
func (c *MuxQueryClient) Reconnects() int64 { return c.inner.Reconnects() }

// InFlight returns the number of queries currently awaiting replies.
func (c *MuxQueryClient) InFlight() int64 { return c.inner.InFlight() }

// Interval queries per-flow packet counts dequeued during [start, end) on a
// port. Safe for concurrent use; concurrent calls share the connection.
func (c *MuxQueryClient) Interval(port int, start, end uint64) (Report, error) {
	counts, err := c.inner.Interval(port, start, end)
	if err != nil {
		return nil, err
	}
	return reportFromWire(counts)
}

// Original queries the original causes of congestion at time t.
func (c *MuxQueryClient) Original(port, queue int, t uint64) (Report, error) {
	counts, err := c.inner.Original(port, queue, t)
	if err != nil {
		return nil, err
	}
	return reportFromWire(counts)
}

// BatchQuery is one query in a Batch call. Kind is "interval" (Port,
// Start, End) or "original" (Port, Queue, At).
type BatchQuery struct {
	Kind  string
	Port  int
	Queue int
	Start uint64
	End   uint64
	At    uint64
}

// BatchResult is the answer to the BatchQuery at the same index: a Report
// or a per-query error. A per-query error never fails the whole batch.
type BatchResult struct {
	Report Report
	Err    error
}

// Batch sends every query in one request frame and decodes every answer
// from one response frame, preserving order. It is the cheapest way to ask
// many questions: framing, syscalls, and round-trip latency are amortized
// across the whole batch.
func (c *MuxQueryClient) Batch(queries []BatchQuery) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	wire := make([]control.BatchQuery, len(queries))
	for i, q := range queries {
		switch q.Kind {
		case "interval":
			wire[i] = control.BatchQuery{Kind: control.IntervalQuery, Port: q.Port, Start: q.Start, End: q.End}
		case "original":
			wire[i] = control.BatchQuery{Kind: control.OriginalQuery, Port: q.Port, Queue: q.Queue, Start: q.At}
		default:
			return nil, fmt.Errorf("batch query %d: unknown kind %q", i, q.Kind)
		}
	}
	rs, err := c.inner.Batch(wire)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			out[i] = BatchResult{Err: r.Err}
			continue
		}
		rep, err := reportFromWire(r.Counts)
		if err != nil {
			return nil, err
		}
		out[i] = BatchResult{Report: rep}
	}
	return out, nil
}

// reportFromWire converts a wire response into a Report.
func reportFromWire(counts map[string]float64) (Report, error) {
	out := make(Report, 0, len(counts))
	for s, n := range counts {
		f, err := ParseFlowID(s)
		if err != nil {
			return nil, err
		}
		out = append(out, Culprit{Flow: f, Packets: n})
	}
	SortCulprits(out)
	return out, nil
}
