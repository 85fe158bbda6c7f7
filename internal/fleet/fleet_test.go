package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// fleetKey namespaces flows per hop so each simulated switch answers with
// distinguishable counts.
func fleetKey(hop, n byte) flow.Key {
	return flow.Key{SrcIP: [4]byte{10, hop, 0, n}, DstIP: [4]byte{10, 0, 1, 1}, SrcPort: 5, DstPort: 80, Proto: flow.ProtoTCP}
}

func fleetConfig() control.Config {
	return control.Config{
		TW:    timewindow.Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10},
		QM:    qmonitor.Config{MaxDepthCells: 1024, GranuleCells: 4},
		Ports: []int{0},
	}
}

// startSwitch runs one simulated switch's query plane: a System fed 60
// dequeues on port 0 between t=1010 and t=1600 (flows namespaced by hop),
// served over TCP. Returns its address and the underlying System.
func startSwitch(t *testing.T, hop int) (addr string, sys *control.System, horizon uint64) {
	t.Helper()
	sys, err := control.New(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		sys.OnDequeue(&pktrec.Packet{
			Flow: fleetKey(byte(hop), byte(i%3)),
			Port: 0,
			Meta: pktrec.Metadata{EnqTimestamp: ts - 40, DeqTimedelta: 40, EnqQdepth: 8 + i%9},
		})
	}
	sys.Finalize(ts + 1)
	qs := control.NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	srv, err := control.ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), sys, ts
}

// newFleet builds a collector over n freshly served switches.
func newFleet(t *testing.T, n int, opts Options) (*Collector, []string, uint64) {
	t.Helper()
	c := New(opts)
	t.Cleanup(func() { c.Close() })
	addrs := make([]string, n)
	var horizon uint64
	for i := 0; i < n; i++ {
		addr, _, h := startSwitch(t, i)
		addrs[i] = addr
		horizon = h
		if err := c.Register(SwitchInfo{ID: fmt.Sprintf("sw%d", i), Hop: i, Addr: addr}); err != nil {
			t.Fatalf("register hop %d: %v", i, err)
		}
	}
	return c, addrs, horizon
}

// TestFleetQueryPathBitIdentical is the core acceptance property: each
// hop's counts from a fleet fan-out must be bit-identical to querying that
// switch directly over its own session.
func TestFleetQueryPathBitIdentical(t *testing.T) {
	c, addrs, horizon := newFleet(t, 3, Options{})
	hops := []HopRef{{"sw0", 0}, {"sw1", 0}, {"sw2", 0}}
	results := c.QueryPath(hops, 1000, horizon+1)
	if len(results) != 3 {
		t.Fatalf("got %d hop results, want 3", len(results))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("hop %d (%s): %v", i, res.SwitchID, res.Err)
		}
		if res.Hop != i || res.SwitchID != hops[i].SwitchID {
			t.Fatalf("hop %d answered out of order: %+v", i, res)
		}
		direct, err := control.DialMux(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Interval(0, 1000, horizon+1)
		direct.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("hop %d: direct query returned no counts", i)
		}
		if !reflect.DeepEqual(res.Counts, want) {
			t.Fatalf("hop %d: fleet counts %v != direct counts %v", i, res.Counts, want)
		}
		checkForms(t, res)
		// Flows are hop-namespaced: hop i must only see its own.
		for k := range res.Counts {
			if !strings.HasPrefix(k, fmt.Sprintf("10.%d.0.", i)) {
				t.Fatalf("hop %d reported foreign flow %q", i, k)
			}
		}
	}
}

// TestFleetPartialResults: an unknown switch in the path yields an
// in-place error result — never a silent drop — while other hops answer,
// and the partial-result metric increments.
func TestFleetPartialResults(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _, horizon := newFleet(t, 2, Options{Telemetry: reg})
	hops := []HopRef{{"sw0", 0}, {"ghost", 0}, {"sw1", 0}}
	results := c.QueryPath(hops, 1000, horizon+1)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (one per requested hop)", len(results))
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "unknown switch") {
		t.Fatalf("ghost hop error = %v, want unknown-switch", results[1].Err)
	}
	if results[1].SwitchID != "ghost" {
		t.Fatalf("ghost hop result misattributed: %+v", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("surviving hop %d failed: %v", i, results[i].Err)
		}
		if len(results[i].Counts) == 0 {
			t.Fatalf("surviving hop %d returned no counts", i)
		}
	}
}

// slowConn stubs the query session seam: answers after a fixed delay and
// counts the queries it was asked.
type slowConn struct {
	delay  time.Duration
	counts map[string]float64
	err    error
	calls  atomic.Int64
}

func (s *slowConn) IntervalTraced(port int, start, end uint64, tr *tracing.Trace) (map[string]float64, error) {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return s.counts, s.err
}
func (s *slowConn) Close() error { return nil }

// stubDial points the collector's dial seam at canned connections by
// address.
func stubDial(conns map[string]queryConn) func(string, control.DialOptions) (queryConn, error) {
	return func(addr string, _ control.DialOptions) (queryConn, error) {
		c, ok := conns[addr]
		if !ok {
			return nil, fmt.Errorf("stub: no conn for %s", addr)
		}
		return c, nil
	}
}

// TestFleetHopTimeout: a hop that exceeds the per-switch deadline is
// reported with ErrHopTimeout while fast hops still answer.
func TestFleetHopTimeout(t *testing.T) {
	fast := map[string]float64{"10.0.0.1:5>10.0.1.1:80/tcp": 3}
	c := New(Options{HopTimeout: 30 * time.Millisecond})
	defer c.Close()
	c.dial = stubDial(map[string]queryConn{
		"fast": &slowConn{counts: fast},
		"slow": &slowConn{delay: 2 * time.Second, counts: fast},
	})
	for i, addr := range []string{"fast", "slow"} {
		if err := c.Register(SwitchInfo{ID: addr, Hop: i, Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}
	results := c.QueryPath([]HopRef{{"fast", 0}, {"slow", 0}}, 0, 100)
	if results[0].Err != nil || !reflect.DeepEqual(results[0].Counts, fast) {
		t.Fatalf("fast hop: %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrHopTimeout) {
		t.Fatalf("slow hop error = %v, want ErrHopTimeout", results[1].Err)
	}
	if results[1].Latency < 30*time.Millisecond {
		t.Fatalf("timed-out hop reported latency %v below the deadline", results[1].Latency)
	}
}

// TestFleetRegistration covers duplicate IDs, unregister, and the sorted
// fleet listing.
func TestFleetRegistration(t *testing.T) {
	c, addrs, _ := newFleet(t, 2, Options{})
	if err := c.Register(SwitchInfo{ID: "sw0", Hop: 7, Addr: addrs[0]}); err == nil {
		t.Fatal("duplicate switch id accepted")
	}
	if err := c.Register(SwitchInfo{ID: "", Addr: addrs[0]}); err == nil {
		t.Fatal("empty switch id accepted")
	}
	sws := c.Switches()
	ids := make([]string, len(sws))
	for i, s := range sws {
		ids[i] = s.ID
	}
	if !sort.StringsAreSorted(ids) || len(ids) != 2 {
		t.Fatalf("fleet listing %v not sorted by hop/id", ids)
	}
	if err := c.Unregister("sw0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("sw0"); err == nil {
		t.Fatal("double unregister succeeded")
	}
	res := c.QueryPath([]HopRef{{"sw0", 0}}, 0, 100)
	if res[0].Err == nil {
		t.Fatal("query against unregistered switch succeeded")
	}
}

// TestFleetDiagnose: the per-hop culprit ranking must match each switch's
// own TopK over the same interval, with exact counts.
func TestFleetDiagnose(t *testing.T) {
	c, _, horizon := newFleet(t, 3, Options{})
	hops := []HopRef{{"sw0", 0}, {"sw1", 0}, {"sw2", 0}}
	d, err := c.Diagnose("victim-pkt-42", hops, 1000, horizon+1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Partial || len(d.FailedHops()) != 0 {
		t.Fatalf("clean path reported partial: %+v", d.FailedHops())
	}
	if len(d.Hops) != 3 {
		t.Fatalf("got %d hop diagnoses, want 3", len(d.Hops))
	}
	for i, hd := range d.Hops {
		if len(hd.Culprits) != 2 {
			t.Fatalf("hop %d: %d culprits, want k=2", i, len(hd.Culprits))
		}
		// Rankings are descending and hop-local.
		if hd.Culprits[0].Count < hd.Culprits[1].Count {
			t.Fatalf("hop %d culprits unsorted: %+v", i, hd.Culprits)
		}
		for _, cu := range hd.Culprits {
			if cu.Flow.SrcIP[1] != byte(i) {
				t.Fatalf("hop %d ranked foreign culprit %v", i, cu.Flow)
			}
			if want := hd.Counts[cu.Flow.String()]; cu.Count != want {
				t.Fatalf("hop %d culprit %v count %v != hop counts %v", i, cu.Flow, cu.Count, want)
			}
		}
	}
	if _, err := c.Diagnose("v", hops, 500, 500, 2); err == nil {
		t.Fatal("empty diagnosis interval accepted")
	}
}

// TestFleetReplyKeySpelledTwice: a reply naming one flow under two texts —
// its protocol as a name and as a number — fails the hop as malformed
// instead of summing both into one Flows entry beside two Counts entries.
func TestFleetReplyKeySpelledTwice(t *testing.T) {
	c := New(Options{})
	defer c.Close()
	c.dial = stubDial(map[string]queryConn{
		"sw": &slowConn{counts: map[string]float64{
			"10.0.0.1:5>10.0.1.1:80/tcp":    3,
			"10.0.0.1:5>10.0.1.1:80/proto6": 2,
		}},
	})
	if err := c.Register(SwitchInfo{ID: "sw", Addr: "sw"}); err != nil {
		t.Fatal(err)
	}
	res := c.QueryPath([]HopRef{{"sw", 0}}, 0, 100)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "malformed flow key") || res[0].Flows != nil {
		t.Fatalf("QueryPath took a flow under two keys: %+v", res[0])
	}
}

// TestFleetDiagnoseMalformedKey: a hop replying with an unparseable flow
// key degrades to a per-hop error, not a fatal diagnosis failure.
func TestFleetDiagnoseMalformedKey(t *testing.T) {
	good := map[string]float64{"10.0.0.1:5>10.0.1.1:80/tcp": 3}
	c := New(Options{})
	defer c.Close()
	c.dial = stubDial(map[string]queryConn{
		"ok":  &slowConn{counts: good},
		"bad": &slowConn{counts: map[string]float64{"not-a-flow-key": 1}},
	})
	for i, id := range []string{"ok", "bad"} {
		if err := c.Register(SwitchInfo{ID: id, Hop: i, Addr: id}); err != nil {
			t.Fatal(err)
		}
	}
	res := c.QueryPath([]HopRef{{"ok", 0}, {"bad", 0}}, 0, 100)
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "malformed flow key") || res[1].Counts != nil || res[1].Flows != nil {
		t.Fatalf("QueryPath let the malformed reply through: %+v", res[1])
	}
	if res[0].Err != nil {
		t.Fatalf("healthy hop failed beside a malformed one: %v", res[0].Err)
	}
	checkForms(t, res[0])
	d, err := c.Diagnose("v", []HopRef{{"ok", 0}, {"bad", 0}}, 0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Partial {
		t.Fatal("malformed hop reply did not mark the diagnosis partial")
	}
	if got := d.FailedHops(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("failed hops = %v, want [bad]", got)
	}
	if len(d.Hops[0].Culprits) != 1 || d.Hops[0].Err != nil {
		t.Fatalf("healthy hop corrupted by sibling failure: %+v", d.Hops[0])
	}
}

// checkForms holds an answered hop's two forms of its counts to each other:
// the same flows, and each text count the count keyed by that flow.
func checkForms(t *testing.T, res HopResult) {
	t.Helper()
	if res.Err != nil {
		return
	}
	if len(res.Flows) != len(res.Counts) {
		t.Fatalf("hop %s: %d flows, %d text counts", res.SwitchID, len(res.Flows), len(res.Counts))
	}
	for k, n := range res.Flows {
		if got, ok := res.Counts[k.String()]; !ok || got != n {
			t.Fatalf("hop %s flow %v: text count %v (present %v), keyed count %v", res.SwitchID, k, got, ok, n)
		}
	}
}

// TestFleetTracingJoined: a sampled fleet query produces one trace whose
// spans include the fan-out legs and each hop's server-side stages.
func TestFleetTracingJoined(t *testing.T) {
	tracer := tracing.New(tracing.Config{SampleEvery: 1})
	c, _, horizon := newFleet(t, 3, Options{Tracer: tracer})
	results := c.QueryPath([]HopRef{{"sw0", 0}, {"sw1", 0}, {"sw2", 0}}, 1000, horizon+1)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("hop %s: %v", res.SwitchID, res.Err)
		}
	}
	traces := tracer.Traces()
	if len(traces) == 0 {
		t.Fatal("no trace recorded for a sampled fleet query")
	}
	srcs := map[string]int{}
	hopSpans := 0
	for _, sp := range traces[0].Spans() {
		srcs[sp.Src]++
		if strings.HasPrefix(sp.Name, "fleet.hop.") {
			hopSpans++
		}
	}
	if hopSpans != 3 {
		t.Fatalf("trace has %d fleet.hop spans, want 3: %+v", hopSpans, traces[0].Spans())
	}
	if srcs[tracing.SrcServer] == 0 {
		t.Fatalf("trace absorbed no server-side spans: %v", srcs)
	}
}
