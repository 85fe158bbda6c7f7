package printqueue

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func opsFixture(t *testing.T) (*System, *OpsService, uint64) {
	t.Helper()
	cfg := DefaultConfig(0)
	pq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := FlowID{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: 6}
	var ts uint64 = 1000
	for i := 0; i < 200; i++ {
		ts += 80
		pq.Observe(Packet{Flow: f, Port: 0, Bytes: 100}, ts-40, ts, 30)
	}
	pq.Finalize(ts + 1)
	ops, err := pq.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ops.Close() })
	return pq, ops, ts
}

func opsGet(t *testing.T, ops *OpsService, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + ops.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestHealthzLivenessReadinessSplit is the readiness satellite: liveness
// stays 200 as long as the process serves, while readiness flips to 503
// with a reason once the ingestion pipeline has been attached and stopped.
func TestHealthzLivenessReadinessSplit(t *testing.T) {
	pq, ops, _ := opsFixture(t)

	for _, path := range []string{"/healthz", "/healthz/live", "/healthz/ready"} {
		if code, body := opsGet(t, ops, path); code != 200 || !strings.Contains(body, "ok") {
			t.Errorf("GET %s before pipeline = %d %q, want 200 ok", path, code, body)
		}
	}

	pl, err := pq.StartPipeline(PipelineConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := opsGet(t, ops, "/healthz/ready"); code != 200 {
		t.Errorf("ready = %d while pipeline open, want 200", code)
	}
	pl.Close()

	code, body := opsGet(t, ops, "/healthz/ready")
	if code != http.StatusServiceUnavailable {
		t.Errorf("ready after pipeline Close = %d, want 503", code)
	}
	if !strings.Contains(body, "pipeline-stopped") {
		t.Errorf("readiness body %q does not name the pipeline-stopped reason", body)
	}
	// Liveness is unaffected: the process still serves.
	for _, path := range []string{"/healthz", "/healthz/live"} {
		if code, _ := opsGet(t, ops, path); code != 200 {
			t.Errorf("GET %s after pipeline close = %d, want 200", path, code)
		}
	}
}

// TestOpsTraceEndpoints drives a traced query through the query plane and
// checks the trace/slowlog/event debug endpoints plus the OpenMetrics
// exemplar rendition of /metrics.
func TestOpsTraceEndpoints(t *testing.T) {
	pq, ops, ts := opsFixture(t)
	pq.EnableTracing(TracingConfig{SampleEvery: 1})

	// Empty rings render as JSON arrays, not null.
	for _, path := range []string{"/debug/traces", "/debug/slowlog", "/debug/events"} {
		code, body := opsGet(t, ops, path)
		if code != 200 {
			t.Fatalf("GET %s = %d", path, code)
		}
		if !strings.HasPrefix(strings.TrimSpace(body), "[") {
			t.Errorf("GET %s did not return a JSON array: %q", path, body)
		}
	}

	// A served query self-samples into the server trace ring and stamps a
	// latency-histogram exemplar.
	svc, err := pq.Serve("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	qc, err := DialQueriesMux(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, err := qc.Interval(0, 1000, ts+1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for pq.Tracer().Finished() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	traces := pq.Traces()
	if len(traces) == 0 {
		t.Fatal("no trace recorded for the served query")
	}
	id := FormatTraceID(traces[0].ID())

	code, body := opsGet(t, ops, "/debug/traces")
	if code != 200 || !strings.Contains(body, id) {
		t.Fatalf("/debug/traces (%d) missing trace %s: %s", code, id, body)
	}
	code, body = opsGet(t, ops, "/debug/trace/"+id)
	if code != 200 || !strings.Contains(body, `"spans"`) {
		t.Fatalf("/debug/trace/%s = %d: %s", id, code, body)
	}
	if code, _ := opsGet(t, ops, "/debug/trace/not-a-trace-id"); code != http.StatusNotFound {
		t.Errorf("bad trace id = %d, want 404", code)
	}
	if code, _ := opsGet(t, ops, "/debug/trace/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown trace id = %d, want 404", code)
	}

	// Content negotiation: default scrape stays 0.0.4 and carries no
	// exemplars; an OpenMetrics Accept gets exemplars and the EOF marker.
	code, body = opsGet(t, ops, "/metrics")
	if code != 200 || strings.Contains(body, "# EOF") || strings.Contains(body, "trace_id=") {
		t.Fatalf("default /metrics changed format (code %d, EOF=%v, exemplars=%v)",
			code, strings.Contains(body, "# EOF"), strings.Contains(body, "trace_id="))
	}
	req, _ := http.NewRequest("GET", "http://"+ops.Addr()+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("negotiated Content-Type %q is not OpenMetrics", ct)
	}
	if !strings.HasSuffix(strings.TrimRight(string(om), "\n"), "# EOF") {
		t.Error("OpenMetrics rendition missing # EOF terminator")
	}
	if !strings.Contains(string(om), `# {trace_id="`+id+`"}`) {
		t.Errorf("OpenMetrics rendition missing exemplar for trace %s", id)
	}
}

// TestTracedQueryMatchesUntraced guards the public API: the same query
// with and without tracing returns identical reports.
func TestTracedQueryMatchesUntraced(t *testing.T) {
	pq, _, ts := opsFixture(t)
	before, err := pq.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	pq.EnableTracing(TracingConfig{SampleEvery: 1})
	after, err := pq.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("tracing changed the report: %d vs %d culprits", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("culprit %d differs with tracing on: %+v vs %+v", i, before[i], after[i])
		}
	}
	if pq.Tracer().Finished() == 0 {
		t.Fatal("traced query did not record a trace")
	}
}
