package control

import (
	"bytes"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/pktrec"
)

var updateSeedlog = flag.Bool("update-seedlog", false, "rewrite ../histstore/testdata/seedlog_v2 from this build's control plane")

// seedlogV2Dir is the second committed log generation. seedlog_v1 holds
// whole-register records written by the histstore of PR 11; this one was
// written by the control plane of the commit that trimmed checkpoints to
// their coverage and top: two ports, a three-checkpoint hot ring over the
// log, periodic and data-plane freezes. The histstore package opens it and
// answers from it (TestSeedlogV2OpensAndAnswers); this package holds the
// control plane to writing it again, byte for byte.
const seedlogV2Dir = "../histstore/testdata/seedlog_v2"

// seedlogV2Config is the fixture's System: a three-checkpoint hot ring over
// a log in dir, or — with no dir — the same System keeping everything in RAM.
func seedlogV2Config(dir string) Config {
	cfg := testConfig(0, 2)
	cfg.QueuesPerPort = 2
	cfg.PollPeriodNs = 256
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta == 31 }
	if dir != "" {
		cfg.MaxCheckpoints = 3
		cfg.History = &histstore.Options{Dir: dir, SegmentBytes: 8 << 10}
	}
	return cfg
}

func seedlogV2Trace() []*pktrec.Packet {
	rng := rand.New(rand.NewPCG(2, 2022))
	ts := map[int]uint64{0: 1000, 2: 1200}
	pkts := make([]*pktrec.Packet, 0, 1600)
	for i := 0; i < cap(pkts); i++ {
		port := 2 * rng.IntN(2)
		ts[port] += uint64(1 + rng.IntN(20))
		p := deq(fkey(byte(rng.IntN(30))), port, ts[port]-uint64(50+rng.IntN(200)), ts[port], 4*rng.IntN(120))
		p.Queue = rng.IntN(2)
		if i%397 == 396 {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = ts[port]-31, 31
		} else if p.Meta.DeqTimedelta == 31 {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = ts[port]-32, 32
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// TestSeedlogV2WrittenBitIdentically: fed the fixture's trace, today's
// control plane writes the fixture's segments byte for byte — what a freeze
// keeps, how it is encoded and how it is framed are all pinned — and a
// System reopened on the committed files answers every interval as a System
// that kept the whole history in RAM does.
func TestSeedlogV2WrittenBitIdentically(t *testing.T) {
	feed := func(s *System) (horizon uint64) {
		for _, p := range seedlogV2Trace() {
			s.OnDequeue(p)
			horizon = max(horizon, p.Meta.DeqTimestamp())
		}
		s.Finalize(horizon + 1)
		return horizon
	}
	dir := t.TempDir()
	written, err := New(seedlogV2Config(dir))
	if err != nil {
		t.Fatal(err)
	}
	horizon := feed(written)
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	if st := written.Stats(); st.SpecialFreezes < 3 || st.Checkpoints < 40 {
		t.Fatalf("trace took %d periodic and %d data-plane freezes", st.Checkpoints, st.SpecialFreezes)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("wrote %d segments, %v", len(segs), err)
	}
	if *updateSeedlog {
		if err := os.RemoveAll(seedlogV2Dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(seedlogV2Dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	committed, _ := filepath.Glob(filepath.Join(seedlogV2Dir, "*.seg"))
	if !*updateSeedlog && len(committed) != len(segs) {
		t.Fatalf("wrote %d segments, the fixture has %d", len(segs), len(committed))
	}
	reopenDir := t.TempDir()
	for _, seg := range segs {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		fixture := filepath.Join(seedlogV2Dir, filepath.Base(seg))
		if *updateSeedlog {
			if err := os.WriteFile(fixture, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: today's control plane writes %d bytes, the fixture holds %d different ones", filepath.Base(seg), len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(reopenDir, filepath.Base(seg)), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ram, err := New(seedlogV2Config(""))
	if err != nil {
		t.Fatal(err)
	}
	feed(ram)
	reopened, err := New(seedlogV2Config(reopenDir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rng := rand.New(rand.NewPCG(4, 8))
	for q := 0; q < 200; q++ {
		port := 2 * rng.IntN(2)
		lo := 900 + rng.Uint64N(horizon)
		hi := lo + 1 + rng.Uint64N(horizon/3)
		want, err := ram.QueryInterval(port, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.QueryInterval(port, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("port %d [%d,%d): the reopened fixture answers %v, the in-RAM history %v", port, lo, hi, got, want)
		}
	}
}
