package fleet

import (
	"errors"
	"net"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/faultnet"
	"printqueue/internal/pktrec"
)

// chaosSeed returns the fault-injection seed, overridable via
// PRINTQUEUE_CHAOS_SEED so CI can pin or sweep it.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("PRINTQUEUE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PRINTQUEUE_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// feedSystem builds one hop's System with the standard 60-packet feed.
func feedSystem(t *testing.T, hop int) (*control.System, uint64) {
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
	return sys, ts
}

// startTornSwitch serves a hop whose every reply is torn mid-frame: the
// fault injector transmits half of each server write, then resets the
// connection. Dials succeed, so the hop looks alive until a fan-out leg
// is in flight — the blackholed-mid-frame scenario.
func startTornSwitch(t *testing.T, hop int, seed int64) string {
	t.Helper()
	sys, _ := feedSystem(t, hop)
	qs := control.NewQueryServer(sys)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := control.ServeQueriesListener(faultnet.Wrap(ln, faultnet.Config{
		Seed:         seed,
		PartialWrite: 1, // every reply: half the frame, then ECONNRESET
	}), qs, control.ServeOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// TestFleetTornHopChaos is the fleet chaos scenario: a 3-hop path where
// the middle hop's replies are torn mid-frame. The fan-out must keep
// partial-result semantics — one HopResult per requested hop, the torn
// hop failing in place with its error — while the surviving hops' counts
// stay bit-identical to querying those switches directly, and the torn
// hop's session shows connection poisoning (reconnects) rather than a
// wedged desynced stream.
func TestFleetTornHopChaos(t *testing.T) {
	seed := chaosSeed(t)
	c, _, horizon := newFleet(t, 2, Options{
		HopTimeout: 5 * time.Second,
		Dial: control.DialOptions{
			Timeout:     300 * time.Millisecond,
			MaxRetries:  2,
			BackoffBase: time.Microsecond,
			BackoffMax:  time.Millisecond,
			Seed:        seed,
		},
	})
	tornAddr := startTornSwitch(t, 2, seed)
	if err := c.Register(SwitchInfo{ID: "torn", Hop: 2, Addr: tornAddr}); err != nil {
		t.Fatalf("register torn hop (dial must succeed; faults hit replies only): %v", err)
	}
	hops := []HopRef{{"sw0", 0}, {"torn", 0}, {"sw1", 0}}
	results := c.QueryPath(hops, 1000, horizon+1)
	if len(results) != len(hops) {
		t.Fatalf("got %d hop results, want %d — hops must never be dropped", len(results), len(hops))
	}
	for i, res := range results {
		if res.SwitchID != hops[i].SwitchID {
			t.Fatalf("result %d misattributed: got %q want %q", i, res.SwitchID, hops[i].SwitchID)
		}
	}
	if results[1].Err == nil {
		t.Fatal("torn hop answered; fault injector exercised nothing")
	}
	if errors.Is(results[1].Err, ErrHopTimeout) {
		t.Fatalf("torn hop failed with the collector deadline (%v); expected the client's own transport error", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		res := results[i]
		if res.Err != nil {
			t.Fatalf("surviving hop %s failed: %v", res.SwitchID, res.Err)
		}
		sw := c.lookup(res.SwitchID)
		direct, err := control.DialMux(sw.info.Addr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Interval(0, 1000, horizon+1)
		direct.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Counts, want) {
			t.Fatalf("surviving hop %s: fleet counts %v != direct counts %v", res.SwitchID, res.Counts, want)
		}
	}
	// The torn session must have poisoned and redialed rather than reusing
	// the desynced connection.
	if n := c.lookup("torn").conn.(*control.MuxClient).Reconnects(); n == 0 {
		t.Fatal("torn replies produced no reconnects; connection poisoning did not engage")
	}
	// Diagnosis over the same path degrades, not fails.
	d, err := c.Diagnose("victim", hops, 1000, horizon+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Partial {
		t.Fatal("diagnosis across a torn hop not marked partial")
	}
	if got := d.FailedHops(); len(got) != 1 || got[0] != "torn" {
		t.Fatalf("failed hops = %v, want [torn]", got)
	}
	for _, i := range []int{0, 2} {
		if len(d.Hops[i].Culprits) == 0 {
			t.Fatalf("surviving hop %s lost its culprit ranking: %+v", d.Hops[i].SwitchID, d.Hops[i])
		}
	}
}

// TestFleetBlackholeHopChaos drops every server write silently (reported
// as sent) — the hop is a pure blackhole. The leg must fail by deadline:
// either the client's own read timeout or the collector's per-hop
// ceiling, never a hang.
func TestFleetBlackholeHopChaos(t *testing.T) {
	seed := chaosSeed(t)
	c, _, horizon := newFleet(t, 2, Options{
		HopTimeout: 700 * time.Millisecond,
		Dial: control.DialOptions{
			Timeout:     150 * time.Millisecond,
			MaxRetries:  1,
			BackoffBase: time.Microsecond,
			BackoffMax:  time.Millisecond,
			Seed:        seed,
		},
	})
	sys, _ := feedSystem(t, 2)
	qs := control.NewQueryServer(sys)
	qs.Start(1)
	t.Cleanup(qs.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := control.ServeQueriesListener(faultnet.Wrap(ln, faultnet.Config{
		Seed:      seed,
		DropWrite: 1, // every reply vanishes; client reads time out
	}), qs, control.ServeOptions{})
	t.Cleanup(func() { srv.Close() })
	if err := c.Register(SwitchInfo{ID: "hole", Hop: 2, Addr: srv.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results := c.QueryPath([]HopRef{{"sw0", 0}, {"hole", 0}, {"sw1", 0}}, 1000, horizon+1)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fan-out across a blackhole took %v; deadlines did not engage", elapsed)
	}
	if results[1].Err == nil {
		t.Fatal("blackholed hop answered")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("surviving hop %s failed: %v", results[i].SwitchID, results[i].Err)
		}
		if len(results[i].Counts) == 0 {
			t.Fatalf("surviving hop %s returned no counts", results[i].SwitchID)
		}
	}
	if fh := (&PathDiagnosis{Hops: []HopDiagnosis{
		{HopResult: results[0]}, {HopResult: results[1]}, {HopResult: results[2]},
	}}).FailedHops(); len(fh) != 1 || fh[0] != "hole" {
		t.Fatalf("failed hops = %v, want [hole]", fh)
	}
}
