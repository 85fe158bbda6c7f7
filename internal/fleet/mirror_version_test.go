package fleet

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
)

// seedlogV3 is the committed log of version-1 records a two-port switch
// wrote (ports 0 and 2, two queues each; see control's seedlog tests).
const seedlogV3 = "../core/histstore/testdata/seedlog_v3"

// seedlogSwitchConfig is the configuration seedlog_v3's writer ran under,
// over a log in dir.
func seedlogSwitchConfig(dir string) control.Config {
	cfg := fleetConfig()
	cfg.Ports = []int{0, 2}
	cfg.QueuesPerPort = 2
	cfg.PollPeriodNs = 256
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta == 31 }
	cfg.MaxCheckpoints = 3
	cfg.History = &histstore.Options{Dir: dir, SegmentBytes: 8 << 10}
	return cfg
}

// TestFleetMirrorMixedVersions: a switch upgraded in place serves the
// version-1 log it wrote before and streams version-3 records after it. A
// mirror subscribed across the upgrade replays the one and ingests the
// other live, and answers every interval — before, after and across the
// upgrade — as the switch does.
func TestFleetMirrorMixedVersions(t *testing.T) {
	dir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(seedlogV3, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments, %v", len(segs), err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := histstore.Open(histstore.Options{Dir: dir}, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var upgrade uint64
	v1 := 0
	err = st.ReplaySince(0, func(payload []byte, port int, freeze, _ uint64, _ bool) error {
		if payload[0] != 1 {
			t.Fatalf("seedlog_v3 holds a version-%d record", payload[0])
		}
		v1++
		upgrade = max(upgrade, freeze)
		return nil
	})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := control.New(seedlogSwitchConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	addr, _ := serveSwitch(t, sys)
	c := New(Options{Mirror: true, MirrorDir: t.TempDir()})
	t.Cleanup(func() { c.Close() })
	if err := c.Register(SwitchInfo{ID: "sw0", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	waitMirrorWarm(t, c, "sw0", 2, upgrade)
	horizon := feedSwitch(sys, 0, upgrade, 3000, 8)
	for i, ts := 0, upgrade; ts < horizon; i++ {
		ts += 23
		sys.OnDequeue(&pktrec.Packet{Flow: fleetKey(2, byte(i%5)), Port: 2, Meta: pktrec.Metadata{EnqTimestamp: ts - 60, DeqTimedelta: 60, EnqQdepth: i % 40}})
	}
	sys.Finalize(horizon + 1)
	waitMirrorWarm(t, c, "sw0", 0, horizon+1)
	if replayed, frames := c.streamReplayed.Load(), c.streamFrames.Load(); replayed < int64(v1) || frames <= replayed {
		t.Fatalf("the mirror took %d frames, %d of them replayed, of a log of %d version-1 records", frames, replayed, v1)
	}

	direct, err := control.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	mir := c.lookup("sw0").mirror
	rng := rand.New(rand.NewPCG(28, 2))
	for q := 0; q < 200; q++ {
		port := 0
		lo := 900 + rng.Uint64N(upgrade-900)
		hi := upgrade + 1 + rng.Uint64N(horizon-upgrade)
		switch q % 4 {
		case 1:
			hi = lo + 1 + rng.Uint64N(upgrade-lo)
		case 2:
			lo = upgrade + rng.Uint64N(horizon-upgrade)
			hi = lo + 1 + rng.Uint64N(horizon+2-lo)
		case 3:
			port = 2
		}
		flows, err := mir.Query(port, lo, hi)
		got := textCounts(flows)
		if err != nil {
			t.Fatalf("port %d [%d,%d) mirror: %v", port, lo, hi, err)
		}
		want, err := direct.Interval(port, lo, hi)
		if err != nil {
			t.Fatalf("port %d [%d,%d) direct: %v", port, lo, hi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("port %d [%d,%d): mirror %v != switch %v", port, lo, hi, got, want)
		}
	}
}

// TestFleetMirrorRefusesUnknownVersion: a frame carrying a record of a codec
// version this build does not read — a switch upgraded past its collector —
// is refused and counted, not stored where every query touching it would
// fail. The record after it opens a hole in the cover, so an interval across
// the hole falls back to the switch and is answered correctly, not from the
// mirror; one after the hole is still the mirror's.
func TestFleetMirrorRefusesUnknownVersion(t *testing.T) {
	addr, sys, horizon, _ := startHistSwitch(t, 0)
	c := mirrorSwitch(t, addr, horizon)
	mir := c.lookup("sw0").mirror
	cps := sys.Checkpoints(0)
	cp := cps[len(cps)-1]
	payload, err := histstore.EncodeRecord(nil, &histstore.Record{TW: cp.TW, QM: cp.QM})
	if err != nil {
		t.Fatal(err)
	}
	end := horizon + 1
	newer := append([]byte{4}, payload[1:]...)
	mir.ingest(control.CheckpointFrame{Port: 0, PrevFreeze: end, FreezeTime: end + 100, Payload: newer})
	if got := c.streamRefused.Load(); got != 1 {
		t.Fatalf("refused %d frames, want 1", got)
	}
	if cov, _ := mir.coverage(0); cov.end != end {
		t.Fatalf("the refused frame moved the cover's end to %d", cov.end)
	}
	if cps, err := mir.store.Covering(0, end, end+100); err != nil || len(cps) != 0 {
		t.Fatalf("the refused record was stored: %d checkpoints, %v", len(cps), err)
	}
	mir.ingest(control.CheckpointFrame{Port: 0, PrevFreeze: end + 100, FreezeTime: end + 200, Payload: payload})
	if cov, _ := mir.coverage(0); cov.start != end+100 || cov.complete {
		t.Fatalf("cover %+v after the hole, want it to start at %d, incomplete", cov, end+100)
	}

	fallbacks := c.streamFallbacks.Load()
	res := c.QueryPath([]HopRef{{"sw0", 0}}, 1000, end)[0]
	if res.Err != nil || res.Mirrored || c.streamFallbacks.Load() != fallbacks+1 {
		t.Fatalf("an interval across the hole: %+v, %d fallbacks before, %d after", res, fallbacks, c.streamFallbacks.Load())
	}
	direct, err := control.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if want, err := direct.Interval(0, 1000, end); err != nil || !reflect.DeepEqual(res.Counts, want) {
		t.Fatalf("the fallback answered %v, the switch %v (%v)", res.Counts, want, err)
	}
	if res := c.QueryPath([]HopRef{{"sw0", 0}}, end+100, end+200)[0]; res.Err != nil || !res.Mirrored {
		t.Fatalf("an interval after the hole: %+v", res)
	}
}
