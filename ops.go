package printqueue

import (
	"encoding/json"
	"net/http"
	"strings"

	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// OpsService is a running operations endpoint for one System: the
// out-of-band observability window PrintQueue's own premise demands — you
// cannot diagnose what you cannot measure, including the measurement system
// itself. It serves:
//
//	/metrics          Prometheus text exposition (format 0.0.4) of every
//	                  control-plane metric: checkpoint/freeze counters, the
//	                  freeze-to-retire latency histogram, per-port packet
//	                  counts, per-shard ingestion ring occupancy and
//	                  backpressure, and query latency histograms. A scrape
//	                  that Accepts application/openmetrics-text gets the
//	                  OpenMetrics rendition with trace-id exemplars on the
//	                  latency histogram buckets.
//	/healthz          liveness probe (compatibility alias of /healthz/live)
//	/healthz/live     liveness probe: the process serves HTTP
//	/healthz/ready    readiness probe: 503 with reasons (e.g.
//	                  "pipeline-stopped") while the system should be
//	                  rotated out of serving
//	/debug/vars       expvar JSON, including the metric registry snapshot
//	/debug/pipeline   JSON introspection: ports, shard assignment, ring
//	                  state, live stats
//	/debug/history    tiered checkpoint history: segments, bytes on disk,
//	                  cache hit/miss, compression ratio inputs, resident
//	                  bytes across tiers, register entries modelled as read
//	                  vs cells actually kept per checkpoint
//	/debug/traces     recent completed traces, newest first (tracing on)
//	/debug/trace/{id} one trace by 16-hex-digit id
//	/debug/slowlog    the always-on slow-query trace ring
//	/debug/events     the data-plane event ring (backpressure, shed,
//	                  freeze stalls, ring high-watermarks)
//	/debug/pprof/*    Go runtime profiles
//
// The instrumentation record path is lock-free and allocation-free, so the
// endpoint can stay attached to a system under full pipeline load; see the
// "Operations & metrics" section of README.md for the metric reference.
type OpsService struct {
	srv *telemetry.Server
}

// ServeOps starts the ops HTTP endpoint on addr (use "127.0.0.1:0" to pick
// a free port). Scrapes are safe at any time: while the sharded pipeline
// runs, while queries execute, and across pipeline restarts. The trace and
// event endpoints answer with empty lists until EnableTracing installs the
// tracing plane (before or after ServeOps — the endpoint reads the live
// system state per request).
func (s *System) ServeOps(addr string) (*OpsService, error) {
	srv, err := telemetry.NewServer(addr, s.inner.Telemetry())
	if err != nil {
		return nil, err
	}
	srv.SetReady(s.inner.Degraded)
	srv.HandleJSON("/debug/pipeline", func() any { return s.inner.Introspect() })
	srv.HandleJSON("/debug/history", func() any {
		st, ok := s.HistoryStats()
		read, kept := s.inner.CheckpointEntries()
		return map[string]any{
			"enabled":                 ok,
			"stats":                   st,
			"resident_bytes":          s.inner.HistoryBytes(),
			"checkpoint_entries_read": read,
			"checkpoint_cells_kept":   kept,
		}
	})
	srv.HandleJSON("/debug/traces", func() any { return traceViews(s.inner.Tracer().Traces()) })
	srv.HandleJSON("/debug/slowlog", func() any { return traceViews(s.inner.Tracer().Slow()) })
	srv.HandleJSON("/debug/events", func() any {
		evs := s.inner.Events().Events()
		if evs == nil {
			evs = []tracing.Event{}
		}
		return evs
	})
	srv.Handle("/debug/trace/", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.serveTrace(w, req)
	}))
	return &OpsService{srv: srv}, nil
}

// serveTrace answers /debug/trace/{id}: the trace view, or 404 when the id
// is malformed or the trace has aged out of both rings.
func (s *System) serveTrace(w http.ResponseWriter, req *http.Request) {
	idStr := strings.TrimPrefix(req.URL.Path, "/debug/trace/")
	id, ok := tracing.ParseID(idStr)
	if !ok {
		http.Error(w, "bad trace id", http.StatusNotFound)
		return
	}
	tr := s.inner.Tracer().Find(id)
	if tr == nil {
		http.Error(w, "trace not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(tr.View())
}

// traceViews renders traces for JSON exposition (never nil, so the
// endpoint returns [] rather than null when the ring is empty).
func traceViews(trs []*tracing.Trace) []tracing.View {
	out := make([]tracing.View, len(trs))
	for i, tr := range trs {
		out[i] = tr.View()
	}
	return out
}

// Addr returns the endpoint's listening address.
func (o *OpsService) Addr() string { return o.srv.Addr() }

// Close shuts the endpoint down. Idempotent.
func (o *OpsService) Close() error { return o.srv.Close() }
