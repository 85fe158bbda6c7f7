package control

import (
	"fmt"
	"sync"
	"time"

	"printqueue/internal/flow"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// QueryServer serves asynchronous queries concurrently with a running data
// plane. The paper's analysis program accepts remote requests while the
// switch keeps forwarding; here, any number of goroutines may submit
// requests while OnDequeue is driven — serially by one goroutine, or by the
// sharded ingestion Pipeline's workers. Queries read only the frozen
// checkpoint history (stable copies), never the live registers, so the
// per-packet hot path stays lock-free. Stats is likewise safe to poll at
// any time (the counters are atomic).
type QueryServer struct {
	sys *System
	met queryMetrics

	mu      sync.Mutex
	started bool
	reqs    chan queryRequest
	done    chan struct{}
	wg      sync.WaitGroup
	// sem bounds the extra goroutines interval queries may fan out across:
	// its capacity is the worker count, so a query sharding a deep
	// checkpoint run never exceeds the pool the operator sized. Shards that
	// cannot acquire a slot run inline on the issuing worker.
	sem chan struct{}
}

// queryMetrics instruments the query execution path, per operation.
// Indexed by QueryKind.
type queryMetrics struct {
	latencyNs [2]*telemetry.Histogram
	errors    [2]*telemetry.Counter
	inflight  *telemetry.Gauge
}

func newQueryMetrics(reg *telemetry.Registry) queryMetrics {
	var m queryMetrics
	for kind, op := range [2]string{IntervalQuery: "interval", OriginalQuery: "original"} {
		m.latencyNs[kind] = reg.Histogram("printqueue_query_latency_ns",
			"Query execution latency over the checkpoint history.",
			telemetry.LatencyBuckets, telemetry.L("op", op))
		m.errors[kind] = reg.Counter("printqueue_query_errors_total",
			"Queries that returned an error.", telemetry.L("op", op))
	}
	m.inflight = reg.Gauge("printqueue_query_inflight",
		"Queries currently executing on the query workers.")
	return m
}

// QueryKind distinguishes the two query families of §6.3.
type QueryKind int

const (
	// IntervalQuery asks for per-flow packet counts over a dequeue-time
	// interval (direct/indirect culprits).
	IntervalQuery QueryKind = iota
	// OriginalQuery asks for the original causes of congestion at a time
	// instant.
	OriginalQuery
)

// QueryResult carries one answered query.
type QueryResult struct {
	Kind   QueryKind
	Port   int
	Queue  int
	Start  uint64
	End    uint64
	Counts flow.Counts // for OriginalQuery, culprits per flow
	Err    error
}

type queryRequest struct {
	kind       QueryKind
	port       int
	queue      int
	start, end uint64
	resp       chan QueryResult
	// tr joins the request to an end-to-end trace (nil when untraced);
	// submitted is stamped at submit so the worker can record the
	// "server.queue" span (time spent waiting for a worker).
	tr        *tracing.Trace
	submitted time.Time
}

// NewQueryServer builds a server over an existing System, registering the
// query-path metrics in the system's telemetry registry.
func NewQueryServer(sys *System) *QueryServer {
	return &QueryServer{sys: sys, met: newQueryMetrics(sys.telemetry)}
}

// Start launches n worker goroutines. It is idempotent until Stop.
func (q *QueryServer) Start(workers int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	q.reqs = make(chan queryRequest)
	q.done = make(chan struct{})
	q.sem = make(chan struct{}, workers)
	q.started = true
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
}

// Stop shuts the workers down, waiting for in-flight queries.
func (q *QueryServer) Stop() {
	q.mu.Lock()
	if !q.started {
		q.mu.Unlock()
		return
	}
	close(q.done)
	q.started = false
	q.mu.Unlock()
	q.wg.Wait()
}

func (q *QueryServer) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.done:
			return
		case req := <-q.reqs:
			req.resp <- q.execute(req)
		}
	}
}

func (q *QueryServer) execute(req queryRequest) QueryResult {
	// A request with no remote trace may still be sampled locally, so
	// server-only queries (tests, pqsim, fleet internals) show up in the
	// trace ring too. Traces we open here we also close here; remote
	// traces are closed by the netserver writer after the reply goes out.
	own := false
	if req.tr == nil {
		if t := q.sys.Tracer(); t != nil {
			req.tr = t.Start(kindName(req.kind))
			own = req.tr != nil
		}
	}
	if req.tr != nil && !req.submitted.IsZero() {
		req.tr.Span("server.queue", tracing.SrcServer, req.submitted, time.Since(req.submitted))
	}
	res := QueryResult{
		Kind:  req.kind,
		Port:  req.port,
		Queue: req.queue,
		Start: req.start,
		End:   req.end,
	}
	if req.kind == IntervalQuery || req.kind == OriginalQuery {
		q.met.inflight.Add(1)
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			q.met.latencyNs[req.kind].ObserveEx(uint64(dur.Nanoseconds()), req.tr.ID())
			q.met.inflight.Add(-1)
			if own {
				req.tr.FinishErr(res.Err)
			} else if req.tr == nil {
				// Unsampled but over the slow threshold: promote into the
				// tracer's always-on slowlog.
				q.sys.Tracer().MaybeSlow(kindName(req.kind), start, dur, res.Err)
			}
		}()
	}
	switch req.kind {
	case IntervalQuery:
		sp := req.tr.StartSpan("server.execute", tracing.SrcServer)
		counts, err := q.sys.queryIntervalSharded(req.port, req.start, req.end, q.sem, req.tr)
		if err != nil {
			sp.End()
			res.Err = err
			q.met.errors[req.kind].Inc()
			return res
		}
		res.Counts = counts
		sp.End()
	case OriginalQuery:
		sp := req.tr.StartSpan("server.execute", tracing.SrcServer)
		counts, err := q.sys.queryOriginal(req.port, req.queue, req.start, req.tr)
		if err != nil {
			sp.End()
			res.Err = err
			q.met.errors[req.kind].Inc()
			return res
		}
		res.Counts = counts
		sp.End()
	default:
		res.Err = fmt.Errorf("control: unknown query kind %d", req.kind)
	}
	return res
}

// submit dispatches a request, failing fast if the server is stopped.
func (q *QueryServer) submit(req queryRequest) QueryResult {
	q.mu.Lock()
	started := q.started
	reqs := q.reqs
	done := q.done
	q.mu.Unlock()
	if !started {
		return QueryResult{Err: fmt.Errorf("control: query server not running")}
	}
	req.resp = make(chan QueryResult, 1)
	select {
	case reqs <- req:
		return <-req.resp
	case <-done:
		return QueryResult{Err: fmt.Errorf("control: query server stopped")}
	}
}

// Interval executes an interval (direct/indirect culprit) query.
func (q *QueryServer) Interval(port int, start, end uint64) QueryResult {
	return q.intervalTraced(port, start, end, nil)
}

// Original executes an original-culprit query at time t.
func (q *QueryServer) Original(port, queue int, t uint64) QueryResult {
	return q.originalTraced(port, queue, t, nil)
}

// intervalTraced is Interval joined to an end-to-end trace (nil = untraced).
func (q *QueryServer) intervalTraced(port int, start, end uint64, tr *tracing.Trace) QueryResult {
	req := queryRequest{kind: IntervalQuery, port: port, start: start, end: end, tr: tr}
	if tr != nil {
		req.submitted = time.Now()
	}
	return q.submit(req)
}

// originalTraced is Original joined to an end-to-end trace (nil = untraced).
func (q *QueryServer) originalTraced(port, queue int, t uint64, tr *tracing.Trace) QueryResult {
	req := queryRequest{kind: OriginalQuery, port: port, queue: queue, start: t, tr: tr}
	if tr != nil {
		req.submitted = time.Now()
	}
	return q.submit(req)
}
