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
	// slots bounds how many queries execute at once: a query holds one
	// while it runs on the goroutine that submitted it.
	slots chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
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
		"Queries currently executing, each holding a query-server slot.")
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
	Counts flow.Counts // for OriginalQuery, culprits per flow
	Err    error
}

// NewQueryServer builds a server over an existing System, registering the
// query-path metrics in the system's telemetry registry.
func NewQueryServer(sys *System) *QueryServer {
	return &QueryServer{sys: sys, met: newQueryMetrics(sys.telemetry)}
}

// Start lets up to workers queries execute at once, each on the goroutine
// that submitted it. It is idempotent until Stop.
func (q *QueryServer) Start(workers int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	q.slots = make(chan struct{}, workers)
	q.done = make(chan struct{})
	q.started = true
}

// Stop fails the queries still waiting for a slot and returns once the
// executing ones finish.
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

// submit runs one query on the caller's goroutine once a slot is free,
// failing fast if the server is stopped. tr joins the query to an
// end-to-end trace (nil when untraced); its "server.queue" span is the
// wait for a slot.
func (q *QueryServer) submit(b BatchQuery, tr *tracing.Trace) QueryResult {
	var submitted time.Time
	if tr != nil {
		submitted = time.Now()
	}
	q.mu.Lock()
	if !q.started {
		q.mu.Unlock()
		return QueryResult{Err: fmt.Errorf("control: query server not running")}
	}
	slots, done := q.slots, q.done
	q.wg.Add(1)
	q.mu.Unlock()
	defer q.wg.Done()
	select {
	case slots <- struct{}{}:
	case <-done:
		return QueryResult{Err: fmt.Errorf("control: query server stopped")}
	}
	defer func() { <-slots }()
	if tr != nil {
		tr.Span("server.queue", tracing.SrcServer, submitted, time.Since(submitted))
	}
	return q.execute(b, tr)
}

func (q *QueryServer) execute(b BatchQuery, tr *tracing.Trace) (res QueryResult) {
	// A query with no remote trace may still be sampled locally, so
	// server-only queries (tests, pqsim, fleet internals) show up in the
	// trace ring too. Traces we open here we also close here; remote
	// traces are closed by the netserver writer after the reply goes out.
	own := false
	if tr == nil {
		if t := q.sys.Tracer(); t != nil {
			tr = t.Start(kindName(b.Kind))
			own = tr != nil
		}
	}
	q.met.inflight.Add(1)
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		q.met.latencyNs[b.Kind].ObserveEx(uint64(dur.Nanoseconds()), tr.ID())
		q.met.inflight.Add(-1)
		if own {
			tr.FinishErr(res.Err)
		} else if tr == nil {
			// Unsampled but over the slow threshold: promote into the
			// tracer's always-on slowlog.
			q.sys.Tracer().MaybeSlow(kindName(b.Kind), start, dur, res.Err)
		}
	}()
	sp := tr.StartSpan("server.execute", tracing.SrcServer)
	if b.Kind == OriginalQuery {
		res.Counts, res.Err = q.sys.queryOriginal(b.Port, b.Queue, b.Start, tr)
	} else {
		res.Counts, res.Err = q.sys.queryInterval(b.Port, b.Start, b.End, tr)
	}
	sp.End()
	if res.Err != nil {
		q.met.errors[b.Kind].Inc()
	}
	return res
}

// Interval executes an interval (direct/indirect culprit) query.
func (q *QueryServer) Interval(port int, start, end uint64) QueryResult {
	return q.submit(BatchQuery{Kind: IntervalQuery, Port: port, Start: start, End: end}, nil)
}

// Original executes an original-culprit query at time t.
func (q *QueryServer) Original(port, queue int, t uint64) QueryResult {
	return q.submit(BatchQuery{Kind: OriginalQuery, Port: port, Queue: queue, Start: t}, nil)
}
