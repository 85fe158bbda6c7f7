package control

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/pktrec"
)

var updateSeedlog = flag.Bool("update-seedlog", false, "rewrite ../histstore/testdata/seedlog_v4 from this build's control plane")

// The committed log generations the control plane writes or wrote, each fed
// seedlogTrace through seedlogConfig: two ports, a three-checkpoint hot ring
// over the log, periodic and data-plane freezes. (seedlog_v1 is older still:
// whole-register records an early histstore wrote from other inputs.)
// seedlog_v2 was written by the commit that trimmed checkpoints to their
// coverage and top, seedlog_v3 by the one that trimmed monitors to their
// staircase; both hold version-1 records and are read-only now, and a System
// reopened on either must still answer as one that kept everything in RAM.
// seedlog_v4 is today's writer, version-2 records: this package holds the
// control plane to writing it again, byte for byte. The histstore package
// opens and answers from all of them (TestSeedlogV2OpensAndAnswers and on).
const (
	seedlogV2Dir = "../histstore/testdata/seedlog_v2"
	seedlogV3Dir = "../histstore/testdata/seedlog_v3"
	seedlogV4Dir = "../histstore/testdata/seedlog_v4"
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
	return seedlogTraceFrom(2022, map[int]uint64{0: 1000, 2: 1200}, 1600)
}

// seedlogTraceFrom is n packets of the fixtures' traffic on ports 0 and 2,
// seeded by seed, each port's dequeues starting after ts[port]; every 397th
// packet trips the data-plane trigger.
func seedlogTraceFrom(seed uint64, ts map[int]uint64, n int) []*pktrec.Packet {
	rng := rand.New(rand.NewPCG(2, seed))
	pkts := make([]*pktrec.Packet, 0, n)
	for i := 0; i < n; i++ {
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
func feedSeedlog(s *System) (horizon uint64) { return feed(s, seedlogTrace()) }

// feed feeds pkts to s, finalizes it one nanosecond after the last dequeue
// and returns that dequeue's time.
func feed(s *System, pkts []*pktrec.Packet) (horizon uint64) {
	for _, p := range pkts {
		s.OnDequeue(p)
		horizon = max(horizon, p.Meta.DeqTimestamp())
	}
	s.Finalize(horizon + 1)
	return horizon
}

// TestSeedlogV4WrittenBitIdentically: fed the fixture's trace, today's
// control plane writes the fixture's segments byte for byte — what a freeze
// keeps, how it is encoded and how it is framed are all pinned — and a
// System reopened on the committed files answers every interval as a System
// that kept the whole history in RAM does.
func TestSeedlogV4WrittenBitIdentically(t *testing.T) {
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
		if err := os.RemoveAll(seedlogV4Dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(seedlogV4Dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	committed, _ := filepath.Glob(filepath.Join(seedlogV4Dir, "*.seg"))
	if !*updateSeedlog && len(committed) != len(segs) {
		t.Fatalf("wrote %d segments, the fixture has %d", len(segs), len(committed))
	}
	for _, seg := range segs {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		fixture := filepath.Join(seedlogV4Dir, filepath.Base(seg))
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
	assertSeedlogAnswersLikeRAM(t, seedlogV4Dir)
}

// TestSeedlogV2ReopensAndAnswers: a System reopened on the log an older
// writer left — version-1 records, monitors trimmed to their top, not their
// staircase — answers every interval as a System that kept the whole
// history in RAM.
func TestSeedlogV2ReopensAndAnswers(t *testing.T) {
	assertSeedlogAnswersLikeRAM(t, seedlogV2Dir)
}

// TestSeedlogV3ReopensAndAnswers: so does one reopened on the version-1 log
// the writer before today's left, monitors trimmed to their staircase.
func TestSeedlogV3ReopensAndAnswers(t *testing.T) {
	assertSeedlogAnswersLikeRAM(t, seedlogV3Dir)
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

// TestSeedlogMixedVersions: a switch upgraded in place reads the version-1
// log it wrote before and writes version 2 after it. A System is reopened on
// seedlog_v3 whose last segment lost its seal in the crash before the
// upgrade, so it resumes appending to that segment, and fed more of the
// fixture's traffic: version-2 records follow the version-1 ones in the same
// segment and in new ones. 200 seeded intervals, most of them straddling the
// boundary, must be answered as the two runs' checkpoints kept in RAM answer
// them.
func TestSeedlogMixedVersions(t *testing.T) {
	dir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(seedlogV3Dir, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments, %v", len(segs), err)
	}
	for n, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if n == len(segs)-1 {
			b = b[:recordEnd(t, b)] // the seal never reached the disk
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := map[int][]*Checkpoint{}
	ram, err := New(seedlogConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	horizon := feedSeedlog(ram)
	more := func() []*pktrec.Packet {
		return seedlogTraceFrom(2023, map[int]uint64{0: horizon + 100, 2: horizon + 300}, 1600)
	}
	after, err := New(seedlogConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	end := feed(after, more())
	reopened, err := New(seedlogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	feed(reopened, more())
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, filepath.Base(segs[len(segs)-1]))
	if v := frameVersions(t, last); v[1] == 0 || v[2] == 0 {
		t.Fatalf("the resumed segment holds %d version-1 and %d version-2 records", v[1], v[2])
	}
	later, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(later) < len(segs)+2 {
		t.Fatalf("%d segments after the upgrade, %d before", len(later), len(segs))
	}
	reopened, err = New(seedlogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	rng := rand.New(rand.NewPCG(4, 9))
	cfg := seedlogConfig("").TW
	for q := 0; q < 200; q++ {
		port := 2 * rng.IntN(2)
		lo := 900 + rng.Uint64N(horizon)
		hi := horizon + 1 + rng.Uint64N(end-horizon)
		if q%4 == 0 {
			lo, hi = horizon+rng.Uint64N(end-horizon), end+2
		}
		if before[port] == nil {
			before[port] = append(ram.Checkpoints(port), after.Checkpoints(port)...)
		}
		acc := timewindow.NewAccumulator(cfg.T, nil)
		if _, err := timewindow.FoldInterval(acc, cfg, before[port], lo, hi); err != nil {
			t.Fatal(err)
		}
		got, err := reopened.QueryInterval(port, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if want := acc.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("port %d [%d,%d): the mixed log answers %v, the runs in RAM %v", port, lo, hi, got, want)
		}
	}
}

// recordEnd returns where a sealed segment's records end: its footer's start.
func recordEnd(t *testing.T, seg []byte) int {
	t.Helper()
	const trailer = 40
	if len(seg) < 8+trailer || string(seg[len(seg)-8:len(seg)-1]) != "PQHTRLR" {
		t.Fatalf("a %d-byte segment without a trailer", len(seg))
	}
	return len(seg) - trailer - int(binary.LittleEndian.Uint32(seg[len(seg)-trailer+20:]))
}

// frameVersions counts a sealed segment's records by codec version: it walks
// the frames — a uvarint length, the payload, a 4-byte checksum — from the
// 8-byte header to the footer.
func frameVersions(t *testing.T, path string) map[byte]int {
	t.Helper()
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[byte]int{}
	end := recordEnd(t, seg)
	for off := 8; off < end; {
		n, w := binary.Uvarint(seg[off:])
		if w <= 0 || off+w+int(n)+4 > end {
			t.Fatalf("%s: bad frame at offset %d", path, off)
		}
		out[seg[off+w]]++
		off += w + int(n) + 4
	}
	return out
}

// TestDecodedCheckpointIsHot: what a switch writes and streams of a
// checkpoint decodes to exactly what it holds in RAM — the same index, flow
// table, anchors and monitors, not merely the same answers — for every
// checkpoint of 20 seeded runs.
func TestDecodedCheckpointIsHot(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := New(seedlogConfig(""))
		if err != nil {
			t.Fatal(err)
		}
		feed(s, seedlogTraceFrom(seed, map[int]uint64{0: 1000, 2: 1200}, 800))
		for _, port := range []int{0, 2} {
			for _, cp := range s.Checkpoints(port) {
				enc, err := histstore.EncodeRecord(nil, &histstore.Record{Port: port, FreezeTime: cp.FreezeTime, PrevFreeze: cp.PrevFreeze, Special: cp.Special, TW: cp.TW, QM: cp.QM})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := histstore.DecodeRecord(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dec.TW, cp.TW) || !reflect.DeepEqual(dec.QM, cp.QM) {
					t.Fatalf("seed %d port %d checkpoint (%d,%d]: decodes to another index or monitors than the switch holds", seed, port, cp.PrevFreeze, cp.FreezeTime)
				}
				checked++
			}
		}
	}
	if checked < 400 {
		t.Fatalf("only %d checkpoints checked", checked)
	}
}
