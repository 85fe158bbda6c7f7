package histstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// appendRecordV1 writes a version-1 record with no queue monitor, the
// inverse of decodeWindowsV1: the header, the flow dictionary, and per
// window the listed cells, ascending in ring position.
func appendRecordV1(dst []byte, cfg timewindow.Config, flows []flow.Key, windows [][]cellV1) []byte {
	dst = append(dst, 1, 0)
	dst = appendUvarint(dst, 1)   // port
	dst = appendUvarint(dst, 100) // freeze time
	dst = appendUvarint(dst, 50)  // freeze - prev
	for _, v := range []uint64{uint64(cfg.M0), uint64(cfg.K), uint64(cfg.Alpha), uint64(cfg.T)} {
		dst = appendUvarint(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))
	dst = appendUvarint(dst, uint64(len(flows)))
	for _, k := range flows {
		dst = k.AppendBinary(dst)
	}
	for _, cells := range windows {
		dst = appendWindowV1(dst, cells)
	}
	return appendUvarint(dst, 0) // no queues
}

// appendWindowV1 writes one window's cells, the inverse of decodeWindowV1:
// the count, the first cell's cycle as the base, then each maximal run of
// adjacent positions as the gap before it, its length and its cells.
func appendWindowV1(dst []byte, cells []cellV1) []byte {
	dst = appendUvarint(dst, uint64(len(cells)))
	if len(cells) == 0 {
		return dst
	}
	pred := cells[0].cycle
	dst = appendUvarint(dst, pred)
	next := uint32(0) // the position after the last run
	for n := 0; n < len(cells); {
		run := 1
		for n+run < len(cells) && cells[n+run].pos == cells[n+run-1].pos+1 {
			run++
		}
		dst = appendUvarint(dst, uint64(cells[n].pos-next))
		dst = appendUvarint(dst, uint64(run))
		for _, c := range cells[n : n+run] {
			dst = appendUvarint(dst, uint64(c.id))
			dst = appendZigzag(dst, int64(c.cycle-pred))
			pred = c.cycle
		}
		next = cells[n+run-1].pos + 1
		n += run
	}
	return dst
}

// TestDecodeV1KeepsWhatAReadKeeps writes whole reads of seeded registers as
// version-1 records, stale cells added, and decodes them: each must be
// exactly the read, flow table order included. A read's kept cells are
// written at their ring positions with their cycles, beside cells no read
// keeps — older cycles at positions the read leaves free, and anything in a
// window the anchor chain does not reach — under a shuffled dictionary that
// also names flows only stale cells hold. The geometries are the package's
// small one, whose ring wraps every 512 ns, and the UW (the paper's) and WS
// ones; the traces leave reads of every window live, and of fewer.
func TestDecodeV1KeepsWhatAReadKeeps(t *testing.T) {
	for _, geo := range []struct {
		name string
		cfg  timewindow.Config
	}{
		{"small", twConfig()},
		{"uw", timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}},
		{"ws", timewindow.Config{M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelayNs: 1200}},
	} {
		cfg := geo.cfg
		for seed := int64(1); seed <= 16; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", geo.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				read := seededRead(t, cfg, rng)
				windows, dict := v1Cells(cfg, read, rng)
				rec, err := DecodeRecord(appendRecordV1(nil, cfg, dict, windows))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rec.TW, read) {
					t.Fatalf("the v1 record of a read of %d kept cells, %d live windows, decodes to %d kept cells, flows %d of %d",
						read.KeptCells(), liveWindows(read), rec.TW.KeptCells(), len(rec.TW.Flows()), len(read.Flows()))
				}
			})
		}
	}
}

// seededRead is the whole read of registers fed a seeded trace: one to a
// few thousand packets of a handful to a few hundred flows, at
// gaps of up to six cell periods, now and then an idle gap of up to a set
// period — starting within a set period of t=0, at most, in half the
// traces, so deeper windows may get no anchor.
func seededRead(t *testing.T, cfg timewindow.Config, rng *rand.Rand) *timewindow.Filtered {
	t.Helper()
	w, err := timewindow.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := rng.Uint64() >> 24
	if rng.Intn(2) > 0 {
		ts = uint64(rng.Int63n(int64(cfg.SetPeriod() >> rng.Intn(8))))
	}
	flows := 1 + rng.Intn(300)
	for n := 1 + rng.Intn(3000); n > 0; n-- {
		ts += 1 + uint64(rng.Int63n(int64(6*cfg.CellPeriod(0))))
		if rng.Intn(500) == 0 {
			ts += uint64(rng.Int63n(int64(cfg.SetPeriod())))
		}
		w.Insert(testKey(rng.Intn(flows)), ts)
	}
	return w.Snapshot()
}

// liveWindows is the number of windows read has an anchor for.
func liveWindows(read *timewindow.Filtered) int {
	n := 0
	for ; n < read.Config().T; n++ {
		if _, ok := read.Anchor(n); !ok {
			break
		}
	}
	return n
}

// v1Cells lists read's kept cells the way a v1 record does, adds stale cells
// no read keeps, and returns them with a shuffled dictionary naming every
// flow they hold.
func v1Cells(cfg timewindow.Config, read *timewindow.Filtered, rng *rand.Rand) ([][]cellV1, []flow.Key) {
	dict := append([]flow.Key(nil), read.Flows()...)
	for n := rng.Intn(20); n > 0; n-- {
		dict = append(dict, testKey(1000+n)) // held by stale cells only
	}
	rng.Shuffle(len(dict), func(a, b int) { dict[a], dict[b] = dict[b], dict[a] })
	id := map[flow.Key]uint32{}
	for n, k := range dict {
		id[k] = uint32(n)
	}
	ring := cfg.Cells()
	mask := uint64(ring - 1)
	windows := make([][]cellV1, cfg.T)
	for i := range windows {
		byPos := make([]*cellV1, ring)
		anchor, live := read.Anchor(i)
		for _, ref := range read.Window(i) {
			tts := cfg.Base(anchor) + uint64(ref.Pos)
			byPos[tts&mask] = &cellV1{pos: uint32(tts & mask), id: id[read.Flows()[ref.Flow]], cycle: tts >> cfg.K}
		}
		for j := range byPos {
			if byPos[j] != nil || rng.Intn(3) == 0 {
				continue
			}
			// A stale cell: below the cycle position j must hold to be kept
			// — the anchor's at or before its position, the one before past
			// it — or, where no anchor reaches, any cycle at all.
			cycle := rng.Uint64() >> cfg.K
			if live {
				older := anchor >> cfg.K // the cycles below the one j must hold
				if uint64(j) > anchor&mask {
					older = max(older, 1) - 1
				}
				if older == 0 {
					continue
				}
				cycle = older - 1 - uint64(rng.Int63n(int64(min(older, 3))))
			}
			byPos[j] = &cellV1{pos: uint32(j), id: uint32(rng.Intn(len(dict))), cycle: cycle}
		}
		for _, c := range byPos {
			if c != nil {
				windows[i] = append(windows[i], *c)
			}
		}
	}
	return windows, dict
}

// hostileV1 are version-1 payloads no register read leaves, whose cells,
// kept as listed, would give span starts that wrap out of order: a window-0
// anchor past the last timestamp, and a cell of cycle 2^64-1 past a cycle-0
// anchor, the cycle before 0 wrapped.
func hostileV1() []namedPayload {
	cfg := timewindow.Config{M0: 3, K: 2, Alpha: 1, T: 1, MinPktTxDelayNs: 10}
	one := []flow.Key{testKey(1)}
	pastLast := appendRecordV1(nil, cfg, one, [][]cellV1{{{pos: 0, cycle: 1 << 59}, {pos: 3, cycle: 1<<59 - 1}}})
	cfg.T = 2
	beforeZero := appendRecordV1(nil, cfg, one, [][]cellV1{{{pos: 0, cycle: 2}}, {{pos: 0, cycle: 0}, {pos: 3, cycle: math.MaxUint64}}})
	return []namedPayload{
		{"v1_anchor_past_last_timestamp", pastLast},
		{"v1_cycle_before_zero", beforeZero},
	}
}

// TestDecodeV1RefusesAnchorPastLastTimestamp: a v1 window 0 whose newest
// cell lies past the last timestamp, which no register read leaves, is
// refused as a v2 anchor past it is. Window 0 lists (position 0, cycle
// 2^59), TTS 2^61, and (position 3, cycle 2^59-1) under m0 3, k 2: the
// former's span would start at 2^64.
func TestDecodeV1RefusesAnchorPastLastTimestamp(t *testing.T) {
	b := hostileV1()[0].payload
	if len(b) != 50 {
		t.Fatalf("the payload is %d bytes, want 50", len(b))
	}
	rec, err := DecodeRecord(b)
	if err == nil {
		t.Fatalf("decoded: window 0 keeps %v", rec.TW.Window(0))
	}
	if !strings.Contains(err.Error(), "past the last timestamp") {
		t.Fatalf("refused for another reason: %v", err)
	}
	if _, _, err := decodeWindows(&reader{b: b}, false); err == nil {
		t.Fatal("the windows-only decode accepted it")
	}
}

// TestDecodeV1DropsCycleBeforeZero: a cell past the anchor's position in a
// window anchored in cycle 0 would lie in the cycle before 0, so it is
// stale whatever its cycle — 2^64-1 included, the one a wrapping decrement
// asks for. Window 1's anchor is TTS 2 ((8 - 4) >> 1 from window 0's cell at
// TTS 8); the read keeps its cell at TTS 0 alone.
func TestDecodeV1DropsCycleBeforeZero(t *testing.T) {
	rec, err := DecodeRecord(hostileV1()[1].payload)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := rec.TW.Anchor(1); a != 2 {
		t.Fatalf("window 1 anchored at %d, want 2", a)
	}
	if got := rec.TW.Window(1); !reflect.DeepEqual(got, []timewindow.CellRef{{Pos: 0, Flow: 0}}) {
		t.Fatalf("window 1 keeps %v, want the cell at TTS 0 alone", got)
	}
	if got := rec.TW.Query(0, math.MaxUint64); got[testKey(1)] == 0 || len(got) != 1 {
		t.Fatalf("query over all time counts %v", got)
	}
}
