package fleet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
)

// startHistSwitch is startSwitch with a durable checkpoint history — the
// segment log that checkpoint streaming replays from, so a mirror can warm
// up against traffic that predates its subscription.
func startHistSwitch(t *testing.T, hop int) (addr string, sys *control.System, horizon uint64, srv *control.NetServer) {
	t.Helper()
	cfg := fleetConfig()
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	sys, err := control.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	horizon = feedSwitch(sys, hop, 1000, 60, 10)
	sys.Finalize(horizon + 1)
	addr, srv = serveSwitch(t, sys)
	return addr, sys, horizon, srv
}

// feedSwitch dequeues n packets of the hop's three flows on port 0, one
// every gap ns after start, and returns the last dequeue time.
func feedSwitch(sys *control.System, hop int, start uint64, n int, gap uint64) uint64 {
	ts := start
	for i := 0; i < n; i++ {
		ts += gap
		sys.OnDequeue(&pktrec.Packet{
			Flow: fleetKey(byte(hop), byte(i%3)),
			Port: 0,
			Meta: pktrec.Metadata{EnqTimestamp: ts - 40, DeqTimedelta: 40, EnqQdepth: 8 + i%9},
		})
	}
	return ts
}

// serveSwitch runs a System's query plane over TCP.
func serveSwitch(t *testing.T, sys *control.System) (addr string, srv *control.NetServer) {
	t.Helper()
	qs := control.NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	srv, err := control.ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), srv
}

// mirrorSwitch registers a served switch as "sw0" with a new mirror-mode
// collector and waits until its mirror has caught up to horizon.
func mirrorSwitch(t *testing.T, addr string, horizon uint64) *Collector {
	t.Helper()
	c := New(Options{Mirror: true, MirrorDir: t.TempDir()})
	t.Cleanup(func() { c.Close() })
	if err := c.Register(SwitchInfo{ID: "sw0", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	waitMirrorWarm(t, c, "sw0", 0, horizon+1)
	return c
}

// newMirroredFleet builds a mirror-mode collector over n switches with
// durable histories and waits until every mirror's replay has caught up to
// the feed horizon.
func newMirroredFleet(t *testing.T, n int, opts Options) (*Collector, []string, uint64) {
	t.Helper()
	opts.Mirror = true
	if opts.MirrorDir == "" {
		opts.MirrorDir = t.TempDir()
	}
	c := New(opts)
	t.Cleanup(func() { c.Close() })
	addrs := make([]string, n)
	var horizon uint64
	for i := 0; i < n; i++ {
		addr, _, h, _ := startHistSwitch(t, i)
		addrs[i] = addr
		horizon = h
		if err := c.Register(SwitchInfo{ID: fmt.Sprintf("sw%d", i), Hop: i, Addr: addr}); err != nil {
			t.Fatalf("register hop %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		waitMirrorWarm(t, c, fmt.Sprintf("sw%d", i), 0, horizon+1)
	}
	return c, addrs, horizon
}

// waitMirrorWarm blocks until the switch's mirror covers through target.
func waitMirrorWarm(t *testing.T, c *Collector, id string, port int, target uint64) {
	t.Helper()
	m := c.lookup(id)
	if m == nil || m.mirror == nil {
		t.Fatalf("switch %s has no mirror", id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cov, ok := m.mirror.coverage(port); ok && cov.end >= target {
			return
		}
		if time.Now().After(deadline) {
			cov, ok := m.mirror.coverage(port)
			t.Fatalf("mirror for %s never warmed to %d (cover %+v ok=%v)", id, target, cov, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetMirrorBitIdentical is the differential acceptance property:
// with warm mirrors, every hop of a path query is answered locally and the
// counts are bit-identical to querying the switch directly.
func TestFleetMirrorBitIdentical(t *testing.T) {
	c, addrs, horizon := newMirroredFleet(t, 3, Options{})
	hops := []HopRef{{"sw0", 0}, {"sw1", 0}, {"sw2", 0}}
	results := c.QueryPath(hops, 1000, horizon+1)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("hop %d: %v", i, res.Err)
		}
		if !res.Mirrored {
			t.Fatalf("hop %d not served from its warm mirror: %+v", i, res)
		}
		if res.Stale || res.LagNs != 0 {
			t.Fatalf("fully covered hop %d annotated stale: %+v", i, res)
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
			t.Fatalf("hop %d: mirror counts %v != direct counts %v", i, res.Counts, want)
		}
		checkForms(t, res)
	}
	if got := c.streamMirrorQueries.Load(); got != 3 {
		t.Fatalf("mirror queries counter = %d, want 3", got)
	}
	if got := c.streamFallbacks.Load(); got != 0 {
		t.Fatalf("warm fleet recorded %d fallbacks", got)
	}
}

// TestFleetMirrorRandomIntervals fuzzes the differential property over
// random intervals that land in the cold tier, the hot tier, and straddle
// both: the mirror must agree bit-for-bit with the switch everywhere its
// coverage admits the query. The switch keeps three checkpoints in RAM over
// its log; the mirror, fed from that log, is also held to the intervals the
// switch's own engine is held to the scan oracle on (internal/core/control,
// TestQueryPathBoundaryDifferential) — whether or not the collector's
// coverage gate would have served them.
func TestFleetMirrorRandomIntervals(t *testing.T) {
	cfg := fleetConfig()
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 3
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	sys, err := control.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	horizon := feedSwitch(sys, 0, 1000, 8000, 8)
	sys.Finalize(horizon + 1)
	hotStart := sys.Checkpoints(0)[0].PrevFreeze
	if hotStart < 2000 {
		t.Fatalf("hot tier starts at %d; history never evicted to the cold tier", hotStart)
	}
	addr, _ := serveSwitch(t, sys)
	c := mirrorSwitch(t, addr, horizon)
	direct, err := control.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	intervals := [][2]uint64{
		{0, horizon + 1000},              // full history
		{0, hotStart / 2},                // cold only
		{hotStart - 300, hotStart + 300}, // straddle
		{hotStart - 500, hotStart},       // ends at the boundary
		{hotStart, hotStart + 500},       // starts at the boundary
		{horizon - 50, horizon + 1},      // hot only
		{horizon + 100, horizon + 200},   // beyond the horizon
		{0, 1},                           // before the first packet
		{horizon, horizon + 1},           // the very last instant
		{horizon / 2, horizon/2 + 1},     // point query mid-trace
	}
	rng := rand.New(rand.NewPCG(5, 13))
	for q := 0; q < 120; q++ {
		lo := rng.Uint64N(horizon)
		intervals = append(intervals, [2]uint64{lo, lo + 1 + rng.Uint64N(horizon/2)})
	}
	mir := c.lookup("sw0").mirror
	for _, iv := range intervals {
		flows, err := mir.Query(0, iv[0], iv[1])
		got := textCounts(flows)
		if err != nil {
			t.Fatalf("[%d,%d) mirror: %v", iv[0], iv[1], err)
		}
		want, err := direct.Interval(0, iv[0], iv[1])
		if err != nil {
			t.Fatalf("[%d,%d) direct: %v", iv[0], iv[1], err)
		}
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d,%d): mirror %v != direct %v", iv[0], iv[1], got, want)
		}
	}

	// A deterministic LCG stands in for math/rand: same spread, no seed
	// plumbing.
	state := uint64(0x9E3779B97F4A7C15)
	next := func(span uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % span
	}
	span := horizon + 1 - 900
	for trial := 0; trial < 40; trial++ {
		start := 900 + next(span)
		end := start + 1 + next(span)
		if end > horizon+1 {
			end = horizon + 1
		}
		if end <= start {
			continue
		}
		res := c.QueryPath([]HopRef{{"sw0", 0}}, start, end)[0]
		if res.Err != nil {
			t.Fatalf("[%d,%d): %v", start, end, res.Err)
		}
		if !res.Mirrored {
			t.Fatalf("[%d,%d) inside coverage not mirror-served", start, end)
		}
		want, err := direct.Interval(0, start, end)
		if err != nil {
			t.Fatalf("[%d,%d) direct: %v", start, end, err)
		}
		if !reflect.DeepEqual(res.Counts, want) {
			t.Fatalf("[%d,%d): mirror %v != direct %v", start, end, res.Counts, want)
		}
		checkForms(t, res)
	}
}

// TestDiagnoseMirroredEqualsNetwork: on the 3-hop fixture, a collector that
// ranks its mirrors' folds and one with no mirror, which ranks the switches'
// parsed replies, return the same culprits — flow, count and order, ties
// included (each hop's three flows often tie) — and the same text counts,
// over random intervals, for k below, at and above the flows a hop holds.
func TestDiagnoseMirroredEqualsNetwork(t *testing.T) {
	mirrored, addrs, horizon := newMirroredFleet(t, 3, Options{})
	network := New(Options{})
	t.Cleanup(func() { network.Close() })
	for i, addr := range addrs {
		if err := network.Register(SwitchInfo{ID: fmt.Sprintf("sw%d", i), Hop: i, Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}
	hops := []HopRef{{"sw0", 0}, {"sw1", 0}, {"sw2", 0}}
	rng := rand.New(rand.NewPCG(33, 7))
	ties := 0
	for q := 0; q < 240; q++ {
		lo := 900 + rng.Uint64N(horizon+1-900)
		hi := lo + 1 + rng.Uint64N(horizon+1-lo)
		if q%4 == 0 {
			hi = min(lo+1+rng.Uint64N(40), horizon+1) // narrow
		}
		k := 1 + q%4
		dm, err := mirrored.Diagnose("v", hops, lo, hi, k)
		if err != nil {
			t.Fatal(err)
		}
		dn, err := network.Diagnose("v", hops, lo, hi, k)
		if err != nil {
			t.Fatal(err)
		}
		for h := range hops {
			m, n := dm.Hops[h], dn.Hops[h]
			if m.Err != nil || n.Err != nil {
				t.Fatalf("[%d,%d) hop %d: mirrored err %v, network err %v", lo, hi, h, m.Err, n.Err)
			}
			if !m.Mirrored || n.Mirrored {
				t.Fatalf("[%d,%d) hop %d: mirrored collector served it mirrored=%v, network collector mirrored=%v", lo, hi, h, m.Mirrored, n.Mirrored)
			}
			checkForms(t, m.HopResult)
			checkForms(t, n.HopResult)
			if !reflect.DeepEqual(m.Culprits, n.Culprits) {
				t.Fatalf("[%d,%d) hop %d k=%d: mirrored culprits %v, network %v", lo, hi, h, k, m.Culprits, n.Culprits)
			}
			if !reflect.DeepEqual(m.Counts, n.Counts) {
				t.Fatalf("[%d,%d) hop %d: mirrored counts %v, network %v", lo, hi, h, m.Counts, n.Counts)
			}
			for j := 1; j < len(m.Culprits); j++ {
				if m.Culprits[j].Count == m.Culprits[j-1].Count {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no ranking held a tie; the fixture must exercise the tie-break")
	}
}

// TestFoldRefusesMixedConfig: a switch restarted under other time windows
// keeps streaming its log, old records and new. The mirror answers an
// interval inside either configuration's records and declines one that
// spans both — the fold refuses to mix them — so the hop falls through to
// the switch, which refuses it too: an error, not a wrong answer.
func TestFoldRefusesMixedConfig(t *testing.T) {
	cfg := fleetConfig()
	cfg.PollPeriodNs = 256
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	cfg.TW.T = 4
	old, err := control.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restart := feedSwitch(old, 0, 1000, 2000, 8)
	old.Finalize(restart + 1)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.TW.T = 3
	sys, err := control.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	// The new run's first dequeue is at the old run's last freeze, so the
	// mirror's cover has no hole to decline the spanning interval by.
	horizon := feedSwitch(sys, 0, restart+1-8, 2000, 8)
	sys.Finalize(horizon + 1)
	addr, _ := serveSwitch(t, sys)
	c := mirrorSwitch(t, addr, horizon)
	mir := c.lookup("sw0").mirror

	for _, iv := range [][2]uint64{{1000, restart + 1}, {restart + 1, horizon + 1}} {
		if counts, err := mir.Query(0, iv[0], iv[1]); err != nil || len(counts) == 0 {
			t.Fatalf("[%d,%d) under one configuration: mirror answers %v, error %v", iv[0], iv[1], counts, err)
		}
		if res := c.QueryPath([]HopRef{{"sw0", 0}}, iv[0], iv[1])[0]; !res.Mirrored || res.Err != nil {
			t.Fatalf("hop over [%d,%d) under one configuration: %+v", iv[0], iv[1], res)
		}
	}
	if counts, err := mir.Query(0, 1000, horizon+1); err == nil {
		t.Fatalf("mirror folded T=4 and T=3 records into one answer: %v", counts)
	}
	served := c.streamMirrorQueries.Load()
	res := c.QueryPath([]HopRef{{"sw0", 0}}, 1000, horizon+1)[0]
	if res.Mirrored || res.Err == nil {
		t.Fatalf("hop spanning both configurations: %+v", res)
	}
	if got := c.streamMirrorQueries.Load(); got != served {
		t.Fatal("the declined hop was counted as mirror-served")
	}
}

// TestFleetMirrorStalenessGate: a query reaching past the mirror's cover
// falls back to the network under the strict default, and is served
// locally with an explicit Stale/LagNs annotation under a tolerant bound.
func TestFleetMirrorStalenessGate(t *testing.T) {
	strict, _, horizon := newMirroredFleet(t, 1, Options{})
	res := strict.QueryPath([]HopRef{{"sw0", 0}}, 1000, horizon+5)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mirrored {
		t.Fatalf("strict staleness served a lagged query from the mirror: %+v", res)
	}
	if got := strict.streamFallbacks.Load(); got == 0 {
		t.Fatal("fallback not counted")
	}

	tolerant, _, horizon := newMirroredFleet(t, 1, Options{MirrorStalenessNs: 100})
	res = tolerant.QueryPath([]HopRef{{"sw0", 0}}, 1000, horizon+5)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Mirrored || !res.Stale {
		t.Fatalf("tolerant bound did not serve an annotated stale answer: %+v", res)
	}
	if want := uint64(4); res.LagNs != want {
		t.Fatalf("LagNs = %d, want %d", res.LagNs, want)
	}
	if got := tolerant.streamStaleServed.Load(); got != 1 {
		t.Fatalf("stale-served counter = %d, want 1", got)
	}
}

// TestFleetMirrorColdFallback: mirror mode against a switch with no
// durable history — there is nothing to replay, so queries over old
// traffic fall back to the network and stay correct.
func TestFleetMirrorColdFallback(t *testing.T) {
	addr, _, horizon := startSwitch(t, 0)
	c := New(Options{Mirror: true, MirrorDir: t.TempDir()})
	t.Cleanup(func() { c.Close() })
	if err := c.Register(SwitchInfo{ID: "sw0", Hop: 0, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	res := c.QueryPath([]HopRef{{"sw0", 0}}, 1000, horizon+1)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mirrored {
		t.Fatalf("cold mirror claimed to answer: %+v", res)
	}
	if len(res.Counts) == 0 {
		t.Fatal("network fallback returned no counts")
	}
	if got := c.streamFallbacks.Load(); got == 0 {
		t.Fatal("cold-mirror fallback not counted")
	}
}

// TestFleetConcurrentIdenticalQueries: identical concurrent path queries
// that the mirror cannot answer each send their own network leg, and every
// caller gets the switch's answer.
func TestFleetConcurrentIdenticalQueries(t *testing.T) {
	want := map[string]float64{"10.0.0.1:5>10.0.1.1:80/tcp": 3}
	slow := &slowConn{delay: 100 * time.Millisecond, counts: want}
	c := New(Options{Workers: 16})
	defer c.Close()
	c.dial = stubDial(map[string]queryConn{"slow": slow})
	if err := c.Register(SwitchInfo{ID: "slow", Hop: 0, Addr: "slow"}); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([][]HopResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.QueryPath([]HopRef{{"slow", 0}}, 0, 100)
		}(i)
	}
	wg.Wait()
	for i, rs := range results {
		if rs[0].Err != nil || !reflect.DeepEqual(rs[0].Counts, want) {
			t.Fatalf("caller %d: %+v", i, rs[0])
		}
	}
	if got := slow.calls.Load(); got != callers {
		t.Fatalf("switch asked %d times for %d identical path queries, want one leg each", got, callers)
	}
}

// TestFleetMirrorIDsShareNoDirectory: two switch IDs that differ only in a
// byte the directory name must escape get replicas of their own, so each
// hop's mirrored answer is its own switch's answer.
func TestFleetMirrorIDsShareNoDirectory(t *testing.T) {
	c := New(Options{Mirror: true, MirrorDir: t.TempDir()})
	t.Cleanup(func() { c.Close() })
	ids := []string{"a/b", "a_b"}
	addrs := make([]string, len(ids))
	var horizon uint64
	for i, id := range ids {
		addr, _, h, _ := startHistSwitch(t, i)
		addrs[i], horizon = addr, h
		if err := c.Register(SwitchInfo{ID: id, Hop: i, Addr: addr}); err != nil {
			t.Fatalf("register %q: %v", id, err)
		}
	}
	for _, id := range ids {
		waitMirrorWarm(t, c, id, 0, horizon+1)
	}
	results := c.QueryPath([]HopRef{{ids[0], 0}, {ids[1], 0}}, 1000, horizon+1)
	for i, res := range results {
		if res.Err != nil || !res.Mirrored {
			t.Fatalf("hop %q not answered by its mirror: %+v", ids[i], res)
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
		if len(want) == 0 || !reflect.DeepEqual(res.Counts, want) {
			t.Fatalf("hop %q: mirror counts %v != its switch's counts %v", ids[i], res.Counts, want)
		}
	}
}

// TestFleetStreamMetricsParity is the registry audit: every metric family
// the collector registers — including the nine streaming families of
// mirror mode — must appear in the Prometheus exposition after
// a mirrored query.
func TestFleetStreamMetricsParity(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _, horizon := newMirroredFleet(t, 1, Options{Telemetry: reg})
	if res := c.QueryPath([]HopRef{{"sw0", 0}}, 1000, horizon+1)[0]; res.Err != nil {
		t.Fatal(res.Err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	names := reg.Names()
	for _, want := range []string{
		"printqueue_fleet_stream_frames_total",
		"printqueue_fleet_stream_bytes_total",
		"printqueue_fleet_stream_resyncs_total",
		"printqueue_fleet_stream_replayed_total",
		"printqueue_fleet_stream_reconnects_total",
		"printqueue_fleet_stream_mirror_queries_total",
		"printqueue_fleet_stream_fallbacks_total",
		"printqueue_fleet_stream_stale_served_total",
		"printqueue_fleet_stream_refused_total",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric %s not registered", want)
		}
	}
	for _, n := range names {
		if !strings.Contains(exposition, n) {
			t.Errorf("registered metric %s missing from exposition", n)
		}
	}
	if !strings.Contains(exposition, "printqueue_fleet_stream_frames_total") {
		t.Fatal("stream frame counter missing from exposition")
	}
}

// TestFleetMirrorCloseNeverHangs is the regression test for the close/dial
// race: a Close landing between the streamer's stop check and its publish
// of the freshly dialled stream used to find no stream to close and then
// wait forever for a streamer parked in Next. Registering a mirror and
// closing the collector straight away, a few hundred times, lands in that
// window reliably (about one run in five of a single start/close on the
// old code).
func TestFleetMirrorCloseNeverHangs(t *testing.T) {
	addr, _, _, _ := startHistSwitch(t, 0)
	dir := t.TempDir()
	for i := 0; i < 300; i++ {
		c := New(Options{Mirror: true, MirrorDir: dir})
		if err := c.Register(SwitchInfo{ID: "sw0", Addr: addr}); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			c.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Collector.Close hung on its mirror", i)
		}
	}
}
