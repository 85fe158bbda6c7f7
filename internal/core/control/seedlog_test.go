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

var updateSeedlog = flag.Bool("update-seedlog", false, "rewrite ../histstore/testdata/seedlog_v3 from this build's control plane")

// The committed log generations the control plane writes or wrote, each fed
// seedlogTrace through seedlogConfig: two ports, a three-checkpoint hot ring
// over the log, periodic and data-plane freezes. (seedlog_v1 is older still:
// whole-register records an early histstore wrote from other inputs.)
// seedlog_v2 was written by the commit that trimmed checkpoints to
// their coverage and top; it is read-only now, and a System reopened on it
// must still answer as one that kept everything in RAM. seedlog_v3 is
// today's writer, monitors trimmed to their staircase: this package holds
// the control plane to writing it again, byte for byte. The histstore
// package opens and answers from both (TestSeedlogV2OpensAndAnswers,
// TestSeedlogV3OpensAndAnswers).
const (
	seedlogV2Dir = "../histstore/testdata/seedlog_v2"
	seedlogV3Dir = "../histstore/testdata/seedlog_v3"
)

// seedlogConfig is the fixtures' System: a three-checkpoint hot ring over
// a log in dir, or — with no dir — the same System keeping everything in RAM.
func seedlogConfig(dir string) Config {
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

func seedlogTrace() []*pktrec.Packet {
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

// feedSeedlog feeds seedlogTrace to s, finalizes it and returns the last
// dequeue time.
func feedSeedlog(s *System) (horizon uint64) {
	for _, p := range seedlogTrace() {
		s.OnDequeue(p)
		horizon = max(horizon, p.Meta.DeqTimestamp())
	}
	s.Finalize(horizon + 1)
	return horizon
}

// TestSeedlogV3WrittenBitIdentically: fed the fixture's trace, today's
// control plane writes the fixture's segments byte for byte — what a freeze
// keeps, how it is encoded and how it is framed are all pinned — and a
// System reopened on the committed files answers every interval as a System
// that kept the whole history in RAM does.
func TestSeedlogV3WrittenBitIdentically(t *testing.T) {
	dir := t.TempDir()
	written, err := New(seedlogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	feedSeedlog(written)
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
		if err := os.RemoveAll(seedlogV3Dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(seedlogV3Dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	committed, _ := filepath.Glob(filepath.Join(seedlogV3Dir, "*.seg"))
	if !*updateSeedlog && len(committed) != len(segs) {
		t.Fatalf("wrote %d segments, the fixture has %d", len(segs), len(committed))
	}
	for _, seg := range segs {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		fixture := filepath.Join(seedlogV3Dir, filepath.Base(seg))
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
	}
	assertSeedlogAnswersLikeRAM(t, seedlogV3Dir)
}

// TestSeedlogV2ReopensAndAnswers: a System reopened on the log an older
// writer left — monitors trimmed to their top, not their staircase —
// answers every interval as a System that kept the whole history in RAM.
func TestSeedlogV2ReopensAndAnswers(t *testing.T) {
	assertSeedlogAnswersLikeRAM(t, seedlogV2Dir)
}

// assertSeedlogAnswersLikeRAM reopens a System on a copy of the committed
// log in fixture and holds 200 seeded intervals to a System fed the same
// trace that keeps everything in RAM.
func assertSeedlogAnswersLikeRAM(t *testing.T, fixture string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(fixture, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("%s: %d segments, %v", fixture, len(segs), err)
	}
	dir := t.TempDir()
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ram, err := New(seedlogConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	horizon := feedSeedlog(ram)
	reopened, err := New(seedlogConfig(dir))
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
			t.Fatalf("%s: port %d [%d,%d): the reopened fixture answers %v, the in-RAM history %v", fixture, port, lo, hi, got, want)
		}
	}
}
