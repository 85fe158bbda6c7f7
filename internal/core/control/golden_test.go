package control

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/answers_v1.golden from this build's answers")

const goldenPath = "testdata/answers_v1.golden"

// The golden file pins what the system answers, not how it holds a
// checkpoint: one seeded two-port trace with periodic set rotation and
// data-plane freezes, several hundred interval queries, original-culprit
// queries across the ring and every data-plane diagnosis, each reduced to a
// 64-bit digest. It was recorded by the commit before checkpoints became
// coverage-trimmed and sparse; every representation since must reproduce it
// on a serial System, a pipelined one, a bounded hot ring over a log, and
// the log reopened.

const (
	goldenQueues = 2
	goldenMarker = 29 // the queuing delay the trace's data-plane trigger fires on
)

var goldenPorts = []int{0, 3}

func goldenConfig() Config {
	cfg := testConfig(goldenPorts...)
	cfg.QueuesPerPort = goldenQueues
	cfg.PollPeriodNs = 256
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta == goldenMarker }
	return cfg
}

// goldenTrace is the seeded trace: per port, dequeues 1–24 ns apart with an
// idle gap of several poll periods now and then (so a flip can follow a flip
// with a packet or two between them), queue depths that climb and fall on
// queue 0 and jump about on queue 1, and one packet in ~150 carrying the
// marker delay. Marked packets land anywhere, the first packet after a flip
// included, which freezes a register set that has just been activated.
func goldenTrace() []*pktrec.Packet {
	rng := rand.New(rand.NewPCG(2022, 19))
	ts := map[int]uint64{0: 1000, 3: 1400}
	level := map[int]int{}
	pkts := make([]*pktrec.Packet, 0, 40000)
	for i := 0; i < cap(pkts); i++ {
		port := goldenPorts[rng.IntN(len(goldenPorts))]
		gap := uint64(1 + rng.IntN(24))
		if rng.IntN(400) == 0 {
			gap += uint64(300 + rng.IntN(900))
		}
		ts[port] += gap
		now := ts[port]
		p := deq(fkey(byte(rng.IntN(40))), port, now-uint64(40+rng.IntN(400)), now, 0)
		if rng.IntN(150) == 0 {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = now-goldenMarker, goldenMarker
		} else if p.Meta.DeqTimedelta == goldenMarker {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = now-goldenMarker-1, goldenMarker+1
		}
		if p.Queue = rng.IntN(goldenQueues); p.Queue == 0 {
			l := level[port] + rng.IntN(5) - 2 + rng.IntN(2)
			if l < 0 {
				l = 0
			}
			if l > 200 {
				l = 60
			}
			level[port] = l
			p.Meta.EnqQdepth = l * 4
		} else {
			p.Meta.EnqQdepth = rng.IntN(1100)
		}
		pkts = append(pkts, p)
	}
	return pkts
}

type goldenSystems struct {
	serial, piped, tiered, reopened *System
	horizon                         uint64
}

// buildGoldenSystems feeds the trace to the four kinds of System the answers
// are held on. The reopened one is a second System on a copy of the tiered
// one's sealed log: an empty hot tier, every interval answered cold.
func buildGoldenSystems(t *testing.T) goldenSystems {
	t.Helper()
	mk := func(mod func(*Config)) *System {
		cfg := goldenConfig()
		if mod != nil {
			mod(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	dir := t.TempDir()
	g := goldenSystems{serial: mk(nil), piped: mk(nil)}
	g.tiered = mk(func(c *Config) {
		c.MaxCheckpoints = 5
		c.History = &histstore.Options{Dir: dir, SegmentBytes: 64 << 10}
	})
	pl, err := NewPipeline(g.piped, PipelineConfig{Shards: 2, BatchSize: 16, RingDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenTrace() {
		g.serial.OnDequeue(p)
		g.tiered.OnDequeue(p)
		pl.Ingest(p)
		if d := p.Meta.DeqTimestamp(); d > g.horizon {
			g.horizon = d
		}
	}
	pl.Close()
	for _, s := range []*System{g.serial, g.piped, g.tiered} {
		s.Finalize(g.horizon + 1)
	}

	// Reopen on a copy, sealed by closing a twin of the tiered System's store
	// options: the tiered System itself stays open for its own queries.
	copyDir := t.TempDir()
	twin := mk(func(c *Config) {
		c.MaxCheckpoints = 5
		c.History = &histstore.Options{Dir: copyDir, SegmentBytes: 64 << 10}
	})
	for _, p := range goldenTrace() {
		twin.OnDequeue(p)
	}
	twin.Finalize(g.horizon + 1)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	g.reopened = mk(func(c *Config) {
		c.MaxCheckpoints = 5
		c.History = &histstore.Options{Dir: copyDir, SegmentBytes: 64 << 10}
	})
	return g
}

func countsDigest(c flow.Counts) uint64 {
	keys := make([]flow.Key, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, flow.Key.Compare)
	h := fnv.New64a()
	var buf []byte
	for _, k := range keys {
		buf = k.AppendBinary(buf[:0])
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c[k]))
		h.Write(buf)
	}
	return h.Sum64()
}

func culpritsDigest(cs []qmonitor.Culprit) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, c := range cs {
		buf = c.Flow.AppendBinary(buf[:0])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Level))
		buf = binary.LittleEndian.AppendUint64(buf, c.Seq)
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenAnswers runs the whole query set and returns one line per answer.
// Every System that can answer a query must give the same digest; a
// disagreement between them fails here, before the file is consulted.
func goldenAnswers(t *testing.T, g goldenSystems) []string {
	t.Helper()
	var lines []string
	rng := rand.New(rand.NewPCG(77, 5))
	named := []struct {
		name string
		s    *System
	}{{"serial", g.serial}, {"pipeline", g.piped}, {"tiered", g.tiered}, {"reopened", g.reopened}}

	for _, port := range goldenPorts {
		hot := g.tiered.Checkpoints(port)
		if len(hot) == 0 || len(g.serial.Checkpoints(port)) < 100 {
			t.Fatalf("port %d: %d hot of %d checkpoints; the trace no longer rotates enough", port, len(hot), len(g.serial.Checkpoints(port)))
		}
		hotStart := hot[0].PrevFreeze
		intervals := [][2]uint64{
			{0, g.horizon + 1000}, {0, ^uint64(0)}, {0, hotStart}, {hotStart, g.horizon + 1},
			{hotStart - 300, hotStart + 300}, {hotStart - 1, hotStart + 1}, {g.horizon, g.horizon + 1}, {0, 1001},
		}
		for q := 0; q < 300; q++ {
			var lo, width uint64
			switch q % 4 {
			case 0: // a victim's residence: tens of ns, anywhere
				lo, width = 1000+rng.Uint64N(g.horizon-1000), 1+rng.Uint64N(64)
			case 1: // a regime: a few poll periods
				lo, width = 1000+rng.Uint64N(g.horizon-1000), 1+rng.Uint64N(2000)
			case 2: // around the hot/cold partition
				lo, width = hotStart-rng.Uint64N(1500), 1+rng.Uint64N(3000)
			default: // wide
				lo, width = rng.Uint64N(g.horizon), 1+rng.Uint64N(g.horizon/2)
			}
			intervals = append(intervals, [2]uint64{lo, lo + width})
		}
		// Intervals cut exactly at freezes, where the coverage clamp decides.
		all := g.serial.Checkpoints(port)
		for q := 0; q < 40; q++ {
			cp := all[rng.IntN(len(all))]
			intervals = append(intervals, [2]uint64{cp.PrevFreeze, max(cp.FreezeTime, cp.PrevFreeze+1)}, [2]uint64{cp.FreezeTime - 1, cp.FreezeTime + 1})
		}
		for _, iv := range intervals {
			var want uint64
			var n int
			for i, ns := range named {
				counts, err := ns.s.QueryInterval(port, iv[0], iv[1])
				if err != nil {
					t.Fatalf("%s QueryInterval(%d, %d, %d): %v", ns.name, port, iv[0], iv[1], err)
				}
				d := countsDigest(counts)
				if i == 0 {
					want, n = d, len(counts)
				} else if d != want {
					t.Fatalf("QueryInterval(%d, %d, %d): %s answers %016x, serial %016x", port, iv[0], iv[1], ns.name, d, want)
				}
			}
			lines = append(lines, fmt.Sprintf("interval port=%d [%d,%d) flows=%d %016x", port, iv[0], iv[1], n, want))
		}

		for q := 0; q < 120; q++ {
			queue := q % goldenQueues
			at := all[rng.IntN(len(all))].FreezeTime + uint64(rng.IntN(3)) - 1
			if q%10 == 0 {
				at = rng.Uint64N(g.horizon + 500)
			}
			if q%3 == 0 { // within the bounded ring, where the eviction carry matters
				at = hot[rng.IntN(len(hot))].FreezeTime + uint64(rng.IntN(3))
			}
			// A reopened System has no queue-monitor history, and a bounded
			// one answers like an unbounded one from its oldest retained
			// freeze on.
			answering := named[:2]
			if at >= hot[0].FreezeTime {
				answering = named[:3]
			}
			var want uint64
			var n int
			for i, ns := range answering {
				cs, err := ns.s.OriginalLevels(port, queue, at)
				if err != nil {
					t.Fatalf("%s OriginalLevels(%d, %d, %d): %v", ns.name, port, queue, at, err)
				}
				counts, err := ns.s.QueryOriginal(port, queue, at)
				if err != nil {
					t.Fatalf("%s QueryOriginal(%d, %d, %d): %v", ns.name, port, queue, at, err)
				}
				if want := qmonitor.FlowCounts(cs); countsDigest(counts) != countsDigest(want) || len(counts) != len(want) {
					t.Fatalf("QueryOriginal(%d, %d, %d): %s counts %v, its levels count %v", port, queue, at, ns.name, counts, want)
				}
				d := culpritsDigest(cs)
				if i == 0 {
					want, n = d, len(cs)
				} else if d != want {
					t.Fatalf("QueryOriginal(%d, %d, %d): %s answers %016x, serial %016x", port, queue, at, ns.name, d, want)
				}
			}
			lines = append(lines, fmt.Sprintf("original port=%d queue=%d at=%d culprits=%d %016x", port, queue, at, n, want))
		}

		dps := g.serial.DPQueries(port)
		if len(dps) < 50 {
			t.Fatalf("port %d: %d data-plane queries; the trace no longer triggers enough", port, len(dps))
		}
		for _, ns := range named[1:3] {
			if got := ns.s.DPQueries(port); len(got) != len(dps) {
				t.Fatalf("port %d: %s ran %d data-plane queries, serial %d", port, ns.name, len(got), len(dps))
			}
		}
		for i, dq := range dps {
			want := countsDigest(dq.Result)
			for _, ns := range named[1:3] {
				other := ns.s.DPQueries(port)[i]
				if other.Err != nil || other.FreezeTime != dq.FreezeTime || countsDigest(other.Result) != want {
					t.Fatalf("port %d data-plane query %d: %s differs from serial", port, i, ns.name)
				}
			}
			lines = append(lines, fmt.Sprintf("dpquery port=%d #%d freeze=%d [%d,%d) flows=%d %016x",
				port, i, dq.FreezeTime, dq.EnqTS, dq.DeqTS, len(dq.Result), want))
		}
	}
	return lines
}

// TestGoldenAnswers replays the answers recorded before checkpoints were
// trimmed to their coverage. All four register sets must be in play and some
// data-plane freeze must follow a flip directly, or the trace has stopped
// exercising what the file is for.
func TestGoldenAnswers(t *testing.T) {
	g := buildGoldenSystems(t)
	var sets [4]bool
	emptyActivation := false
	for _, port := range goldenPorts {
		for _, cp := range g.serial.Checkpoints(port) {
			sets[cp.set] = true
			if cp.Special && cp.FreezeTime == cp.PrevFreeze {
				emptyActivation = true
			}
		}
	}
	if sets != [4]bool{true, true, true, true} || !emptyActivation {
		t.Fatalf("trace froze register sets %v, empty activation seen: %v", sets, emptyActivation)
	}

	got := []byte(strings.Join(goldenAnswers(t, g), "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d answers, the golden file holds %d", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("answer %d changed:\n  now    %s\n  golden %s", i, gl[i], wl[i])
		}
	}
}
