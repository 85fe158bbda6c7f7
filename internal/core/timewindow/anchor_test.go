package timewindow

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// scanAnchor is window 0's anchor by definition: the newest TTS of any
// written cell in the whole-register cell list. Freeze and Snapshot take the
// anchor from the newest TTS the set tracks instead, and scan only when a
// late packet has overwritten that TTS's cell.
func scanAnchor(w *Windows) (tts uint64, ok bool) { return wholeCells(w).latestCell() }

// anchorConfig has 16-cell windows of 4 ns cells, so a feed of a few hundred
// packets wraps window 0 many times and a late packet often lands on the
// newest cell.
var anchorConfig = Config{M0: 2, K: 4, Alpha: 1, T: 3, MinPktTxDelayNs: 2}

// anchorFeed rotates two window sets the way the control plane does and
// checks every flip: the frozen set's Freeze and Snapshot must equal the
// reads anchored at scanAnchor. Every two bytes of data are one step: the
// first picks the flow, the second the kind of step and its size —
//   - 0x00–0x9f: a packet after the last one, by that many ns;
//   - 0xa0–0xbf: a late packet, by up to 31 cells of window 0;
//   - 0xc0–0xdf: a packet one whole window-0 span before the newest, which
//     lands on the newest one's cell with the cycle before;
//   - 0xe0–0xff: a flip, then nothing or a packet stamped at the flip.
//
// With stale set, both sets start on registers an earlier occupant left,
// with cycle IDs around and past the ones the feed writes. It returns how
// many flips took the scan, where the newest TTS's cell was overwritten.
func anchorFeed(t *testing.T, data []byte, stale bool) (flips, scans int) {
	t.Helper()
	cfg := anchorConfig
	span := cfg.WindowPeriod(0)
	var sets [2]*Windows
	for i := range sets {
		var storage [][]Reg
		if stale {
			rng := rand.New(rand.NewPCG(uint64(len(data)), uint64(i)))
			cells := make([][]Cell, cfg.T)
			for w := range cells {
				cells[w] = make([]Cell, cfg.Cells())
				for j := range cells[w] {
					if rng.IntN(3) == 0 {
						cells[w][j] = Cell{Flow: fkey(900 + uint32(rng.IntN(9))), CycleID: rng.Uint64N(64), Valid: true}
					}
				}
			}
			storage = packStorage(cells)
		}
		sets[i], _ = New(cfg, storage)
	}
	active := 0
	now, lastFlip := uint64(4*span), uint64(4*span)
	flip := func() {
		w := sets[active]
		flips++
		if r := &w.windows[0][w.newest&w.kMask]; r.b == 0 || r.cycle != w.newest>>w.k {
			scans++
		}
		requireScanAnchored(t, w, lastFlip, now)
		active, lastFlip = 1-active, now
	}
	for ; len(data) >= 2; data = data[2:] {
		f, step := fkey(uint32(data[0]%32)), data[1]
		switch {
		case step < 0xa0:
			now += uint64(step)
			sets[active].Insert(f, now)
		case step < 0xc0:
			sets[active].Insert(f, now-uint64(step&0x1f)*cfg.CellPeriod(0))
		case step < 0xe0:
			if newest := sets[active].newest << cfg.M0; newest >= span {
				sets[active].Insert(f, newest-span)
			}
		default:
			flip()
			if step&1 == 1 {
				sets[active].Insert(f, now)
			}
		}
	}
	flip()
	return flips, scans
}

// requireScanAnchored fails unless w's Freeze over (prev, freeze] and its
// Snapshot are the reads anchored at scanAnchor.
func requireScanAnchored(t *testing.T, w *Windows, prev, freeze uint64) {
	t.Helper()
	tts, ok := scanAnchor(w)
	if got, want := w.Freeze(prev, freeze), w.readAt(tts, ok, prev, freeze, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("freeze (%d,%d]: anchors %v (live %d), scan-anchored read %v (live %d), scan anchor %d (%v)",
			prev, freeze, got.anchorTTS, got.live, want.anchorTTS, want.live, tts, ok)
	}
	if got, want := w.Snapshot(), w.readAt(tts, ok, 0, 0, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot at %d: anchors %v (live %d), scan-anchored read %v (live %d)",
			freeze, got.anchorTTS, got.live, want.anchorTTS, want.live)
	}
}

// TestFreezeMatchesScan is the seeded property behind FuzzFreezeMatchesScan:
// random feeds with late packets, some a whole window-0 span late, on fresh
// and on stale registers. Every flip's read must be the scan-anchored one,
// and the feeds must reach the scan often enough to test it.
func TestFreezeMatchesScan(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		data := make([]byte, 2*(100+rng.IntN(900)))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		for _, stale := range []bool{false, true} {
			flips, scans := anchorFeed(t, data, stale)
			if scans == 0 || scans == flips {
				t.Fatalf("seed %d stale %v: %d of %d flips scanned window 0; want some but not all", seed, stale, scans, flips)
			}
		}
	}
}

// TestAnchorIsNewestInserted: both inserts track the newest TTS, and the
// anchor a read reports is that TTS until a late packet overwrites its cell;
// then the scan finds the newest one left.
func TestAnchorIsNewestInserted(t *testing.T) {
	cfg := smallConfig() // m0 0, 4-cell windows
	for name, insert := range map[string]func(w *Windows, ts uint64){
		"Insert":                   func(w *Windows, ts uint64) { w.Insert(fkey(1), ts) },
		"InsertAblationAlwaysPass": func(w *Windows, ts uint64) { w.InsertAblationAlwaysPass(fkey(1), ts) },
	} {
		w, _ := New(cfg, nil)
		for _, step := range []struct{ ts, newest, anchor uint64 }{
			{9, 9, 9},    // cell 1
			{6, 9, 9},    // late, cell 2
			{11, 11, 11}, // cell 3
			{7, 11, 9},   // late by a whole span: cell 3 again, so 11 is gone
		} {
			insert(w, step.ts)
			if w.newest != step.newest {
				t.Fatalf("%s: after inserting %d, newest TTS %d, want %d", name, step.ts, w.newest, step.newest)
			}
			if tts, ok := w.Freeze(0, 12).Anchor(0); !ok || tts != step.anchor {
				t.Fatalf("%s: after inserting %d, anchor %d (%v), want %d", name, step.ts, tts, ok, step.anchor)
			}
		}
	}
}

// FuzzFreezeMatchesScan: any feed anchorFeed reads, on fresh and on stale
// registers, freezes at every flip to the scan-anchored read.
func FuzzFreezeMatchesScan(f *testing.F) {
	f.Add([]byte{1, 10, 2, 10, 3, 0xc0, 4, 0xe0, 5, 20, 6, 0xa3, 7, 0xe1})
	f.Add([]byte{0, 0x9f, 0, 0x9f, 1, 0xc5, 1, 0xc5, 2, 0xff, 3, 0xe0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*4096 {
			return
		}
		anchorFeed(t, data, false)
		anchorFeed(t, data, true)
	})
}
