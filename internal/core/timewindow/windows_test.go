package timewindow

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"

	"printqueue/internal/flow"
)

func fkey(n uint32) flow.Key {
	return flow.Key{
		SrcIP:   [4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)},
		DstIP:   [4]byte{10, 0, 0, 1},
		SrcPort: uint16(1000 + n%1000),
		DstPort: 80,
		Proto:   flow.ProtoTCP,
	}
}

// smallConfig is easy to reason about: 4-cell windows, 1 ns base cells.
func smallConfig() Config {
	return Config{M0: 0, K: 2, Alpha: 1, T: 3, MinPktTxDelayNs: 1.25}
}

func TestNewStorageValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := New(cfg, nil); err != nil {
		t.Fatalf("nil storage: %v", err)
	}
	bad := make([][]Cell, cfg.T-1)
	if _, err := New(cfg, packStorage(bad)); err == nil {
		t.Fatal("wrong window count accepted")
	}
	bad = make([][]Cell, cfg.T)
	for i := range bad {
		bad[i] = make([]Cell, 3) // not 2^k
	}
	if _, err := New(cfg, packStorage(bad)); err == nil {
		t.Fatal("wrong cell count accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// cellAt returns window i's register j as the cell a frozen read would make
// of it — the zero Cell for a never-written register — for assertions.
func cellAt(w *Windows, i, j int) Cell {
	var c Cell
	if r := &w.windows[i][j]; r.b != 0 {
		r.unpack(&c)
	}
	return c
}

// regOf packs a cell into its live-register form. An invalid cell keeps its
// flow address word and cycle ID — the garbage a never-written register may
// hold — under a cleared written mark.
func regOf(c Cell) Reg {
	p := c.Flow.Pack()
	if !c.Valid {
		p.B = 0
	}
	return Reg{a: p.A, b: p.B, cycle: c.CycleID}
}

// packStorage turns register contents written as cells — how the tests that
// hand New pre-used storage describe them — into the registers New takes.
func packStorage(cells [][]Cell) [][]Reg {
	if cells == nil {
		return nil
	}
	regs := make([][]Reg, len(cells))
	for i, w := range cells {
		regs[i] = make([]Reg, len(w))
		for j, c := range w {
			regs[i][j] = regOf(c)
		}
	}
	return regs
}

// TestRegHoldsWhatACellHolds: a register unpacks to the cell that was packed
// into it — whatever the key, the all-zero 5-tuple included — and a
// never-written one to the zero Cell, whatever garbage its other words hold.
func TestRegHoldsWhatACellHolds(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	keys := []flow.Key{{}, {Proto: 255}, {SrcPort: 65535, DstPort: 65535}, fkey(7)}
	for i := 0; i < 1000; i++ {
		keys = append(keys, flow.Key{
			SrcIP:   [4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())},
			DstIP:   [4]byte{byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())},
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: flow.Proto(rng.Uint32()),
		})
	}
	w, _ := New(smallConfig(), nil)
	for _, k := range keys {
		cycle := rng.Uint64()
		want := Cell{Flow: k, CycleID: cycle, Valid: true}
		w.windows[0][1] = regOf(want)
		if got := cellAt(w, 0, 1); got != want {
			t.Fatalf("packed %+v, unpacked %+v", want, got)
		}
		w.windows[0][1] = regOf(Cell{Flow: k, CycleID: cycle})
		if got := cellAt(w, 0, 1); got != (Cell{}) {
			t.Fatalf("never-written register (garbage %+v) unpacked to %+v", k, got)
		}
	}
	// The same through the data path: the zero key is storable, and is what
	// Snapshot and Freeze hand back.
	w, _ = New(smallConfig(), nil)
	w.Insert(flow.Key{}, 6)
	want := Cell{CycleID: 1, Valid: true}
	if got := cellAt(w, 0, 2); got != want {
		t.Fatalf("zero key inserted, register reads %+v", got)
	}
	for name, f := range map[string]*Filtered{"Snapshot": w.Snapshot(), "Freeze": w.Freeze(0, 7)} {
		if refs := f.Window(0); len(refs) != 1 || refs[0] != (CellRef{Pos: 3}) || f.start(0, refs[0]) != 6 || len(f.Flows()) != 1 || f.Flows()[0] != (flow.Key{}) {
			t.Fatalf("%s of a window holding the zero key: index %v flows %v", name, refs, f.Flows())
		}
	}
}

func TestInsertPlacesByTTS(t *testing.T) {
	w, _ := New(smallConfig(), nil)
	// m0=0, k=2: timestamp 6 -> TTS 6 -> cycle 1, index 2.
	w.Insert(fkey(1), 6)
	got := cellAt(w, 0, 2)
	if !got.Valid || got.Flow != fkey(1) || got.CycleID != 1 {
		t.Fatalf("cell = %+v, want flow 1 cycle 1", got)
	}
	if tts, ok := w.Freeze(0, 7).Anchor(0); !ok || tts != 6 {
		t.Fatalf("Freeze anchor = %d (%v), want the inserted TTS 6", tts, ok)
	}
}

func TestPassingRuleOneShot(t *testing.T) {
	// The evicted packet is passed iff the new packet's cycle ID exceeds
	// the evicted one's by exactly one.
	t.Run("same cycle drops", func(t *testing.T) {
		w, _ := New(smallConfig(), nil)
		w.Insert(fkey(1), 2) // cycle 0, index 2
		w.Insert(fkey(2), 2) // same cell, same cycle
		if got := cellAt(w, 0, 2); got.Flow != fkey(2) {
			t.Fatalf("newest not stored: %+v", got)
		}
		if got := cellAt(w, 1, 1); got.Valid {
			t.Fatalf("same-cycle eviction must not pass, window 1 got %+v", got)
		}
	})
	t.Run("next cycle passes", func(t *testing.T) {
		w, _ := New(smallConfig(), nil)
		w.Insert(fkey(1), 2) // TTS 2: cycle 0, index 2
		w.Insert(fkey(2), 6) // TTS 6: cycle 1, index 2 -> evicts and passes flow 1
		// Evicted TTS 2 >> alpha(1) = 1: window 1 cell 1.
		got := cellAt(w, 1, 1)
		if !got.Valid || got.Flow != fkey(1) {
			t.Fatalf("window 1 cell 1 = %+v, want flow 1", got)
		}
		if got.CycleID != 0 {
			t.Fatalf("window 1 cycle = %d, want 0", got.CycleID)
		}
	})
	t.Run("distant cycle drops", func(t *testing.T) {
		w, _ := New(smallConfig(), nil)
		w.Insert(fkey(1), 2)  // cycle 0
		w.Insert(fkey(2), 10) // TTS 10: cycle 2, index 2 -> too far, drop
		for j := 0; j < 4; j++ {
			if got := cellAt(w, 1, j); got.Valid {
				t.Fatalf("window 1 cell %d unexpectedly filled: %+v", j, got)
			}
		}
	})
	t.Run("empty cell never passes", func(t *testing.T) {
		w, _ := New(smallConfig(), nil)
		w.Insert(fkey(1), 6) // cycle 1 into empty cell: nothing to pass
		for j := 0; j < 4; j++ {
			if got := cellAt(w, 1, j); got.Valid {
				t.Fatalf("window 1 cell %d unexpectedly filled: %+v", j, got)
			}
		}
	})
}

// TestPaperShiftExample checks the §4.2 worked example: with alpha=1, k=12,
// window-0 TTSes 0x3fff000 and 0x3fff001 map to the same cell of window 1
// with TTS 0x1fff800.
func TestPaperShiftExample(t *testing.T) {
	cfg := Config{M0: 0, K: 12, Alpha: 1, T: 2, MinPktTxDelayNs: 1.25}
	ttsA, ttsB := uint64(0x3fff000), uint64(0x3fff001)
	nextA := ttsA >> cfg.Alpha
	nextB := ttsB >> cfg.Alpha
	if nextA != nextB || nextA != 0x1fff800 {
		t.Fatalf("shifted TTS = %#x, %#x; want both 0x1fff800", nextA, nextB)
	}
	_, idxA := cfg.Split(nextA)
	_, idxB := cfg.Split(nextB)
	if idxA != idxB {
		t.Fatalf("indices differ: %d vs %d", idxA, idxB)
	}
}

// TestCascade pushes a packet through all three windows via successive
// evictions and checks it survives with the right position.
func TestCascade(t *testing.T) {
	w, _ := New(smallConfig(), nil)
	// Window 0, cell 1: TTS 1 (cycle 0), TTS 5 (cycle 1), TTS 9 (cycle 2).
	w.Insert(fkey(1), 1) // sits in w0
	w.Insert(fkey(2), 5) // evicts 1 -> w1 cell 0 (TTS 1>>1 = 0: cycle 0, idx 0)
	if got := cellAt(w, 1, 0); !got.Valid || got.Flow != fkey(1) {
		t.Fatalf("w1[0] = %+v, want flow 1", got)
	}
	// Now evict flow 1 from w1: need a w1-cell-0 packet with w1-cycle 1,
	// i.e. w0 TTS 8 or 9 (>>1 = 4: cycle 1, idx 0) arriving as an eviction
	// from w0. TTS 9 = cycle 2, idx 1 in w0; evicting it requires TTS 13.
	w.Insert(fkey(3), 9) // w0 cell 1 cycle 2: evicts flow 2 (cycle 1->2: pass to w1)
	// flow 2 TTS 5 >> 1 = 2: w1 cell 2 cycle 0.
	if got := cellAt(w, 1, 2); !got.Valid || got.Flow != fkey(2) {
		t.Fatalf("w1[2] = %+v, want flow 2", got)
	}
	w.Insert(fkey(4), 13) // w0 cell 1 cycle 3: evicts flow 3 TTS 9 -> w1 cell 0 cycle 1
	// In w1 cell 0: incoming flow 3 (cycle 1) evicts flow 1 (cycle 0):
	// diff exactly 1 -> flow 1 passes to w2: TTS 0 >> 1 = 0: cell 0 cycle 0.
	if got := cellAt(w, 1, 0); !got.Valid || got.Flow != fkey(3) {
		t.Fatalf("w1[0] = %+v, want flow 3", got)
	}
	if got := cellAt(w, 2, 0); !got.Valid || got.Flow != fkey(1) {
		t.Fatalf("w2[0] = %+v, want flow 1 after double cascade", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	w, _ := New(smallConfig(), nil)
	w.Insert(fkey(1), 1)
	snap := w.Snapshot()
	w.Insert(fkey(2), 1) // overwrite after snapshot
	counts := snap.Query(0, 16)
	if counts[fkey(1)] != 1 || counts[fkey(2)] != 0 {
		t.Fatalf("snapshot not isolated: %v", counts)
	}
}

func TestEntriesPerSnapshot(t *testing.T) {
	if got := smallConfig().EntriesPerSnapshot(); got != 3*4 {
		t.Fatalf("EntriesPerSnapshot = %d, want 12", got)
	}
}

// TestMappingInvariants property-checks the TTS arithmetic: for any
// timestamp, (cycle << k | index) reconstructs the TTS, and the window-i
// cell period contains the timestamp.
func TestMappingInvariants(t *testing.T) {
	cfg := Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	f := func(ts uint64) bool {
		ts %= uint64(1) << 62
		tts := cfg.TTS(ts)
		cycle, idx := cfg.Split(tts)
		if cycle<<cfg.K|uint64(idx) != tts {
			return false
		}
		// The cell's time span contains ts.
		start := tts << cfg.M0
		return ts >= start && ts < start+cfg.CellPeriod(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewestInvariant property-checks the passing rule's guarantee: "when
// a packet is passed into a given time window, it is guaranteed to be the
// newest one" — i.e. a cell's stored cycle never decreases.
func TestNewestInvariant(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	rng := rand.New(rand.NewPCG(1, 2))
	prevCycles := make([][]uint64, cfg.T)
	for i := range prevCycles {
		prevCycles[i] = make([]uint64, cfg.Cells())
	}
	var ts uint64
	for n := 0; n < 10000; n++ {
		ts += uint64(rng.IntN(3)) // non-decreasing timestamps
		w.Insert(fkey(uint32(rng.IntN(8))), ts)
		for i := 0; i < cfg.T; i++ {
			for j := 0; j < cfg.Cells(); j++ {
				c := cellAt(w, i, j)
				if !c.Valid {
					continue
				}
				if c.CycleID < prevCycles[i][j] {
					t.Fatalf("window %d cell %d cycle went backwards: %d -> %d",
						i, j, prevCycles[i][j], c.CycleID)
				}
				prevCycles[i][j] = c.CycleID
			}
		}
	}
}

// TestAblationAlwaysPass confirms the ablation variant floods deeper
// windows compared with the one-shot rule under sparse traffic.
func TestAblationAlwaysPass(t *testing.T) {
	cfg := smallConfig()
	oneShot, _ := New(cfg, nil)
	always, _ := New(cfg, nil)
	// Sparse traffic: one packet every 3 cycles, so the one-shot rule
	// never passes, but always-pass keeps promoting stale packets.
	for i := 0; i < 50; i++ {
		ts := uint64(i) * 12 // every 3 cycles of window 0
		oneShot.Insert(fkey(uint32(i)), ts)
		always.InsertAblationAlwaysPass(fkey(uint32(i)), ts)
	}
	oneDeep := wholeCells(oneShot)
	alwaysDeep := wholeCells(always)
	countValid := func(s *Snapshot, i int) int { return len(s.cells[i]) }
	if got := countValid(oneDeep, 1); got != 0 {
		t.Fatalf("one-shot passed %d packets to window 1 under sparse traffic, want 0", got)
	}
	if got := countValid(alwaysDeep, 1); got == 0 {
		t.Fatal("always-pass ablation passed nothing; expected stale promotions")
	}
}

// TestInsertNoAllocs asserts the steady-state packet path allocates nothing:
// Insert touches only preallocated register cells, so the per-packet cost is
// pure arithmetic plus stores — the property the ingestion pipeline's
// throughput depends on.
func TestInsertNoAllocs(t *testing.T) {
	cfg := Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]flow.Key, 64)
	for i := range keys {
		keys[i] = fkey(uint32(i))
	}
	var ts uint64
	// Warm up past the first cycle so inserts exercise eviction/passing too.
	for i := 0; i < 1<<14; i++ {
		ts += 80
		w.Insert(keys[i&63], ts)
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		ts += 80
		w.Insert(keys[i&63], ts)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Insert allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestHotWordsOwnTheirLines: a Windows and its passes array — the words an
// insert writes besides the registers — occupy whole 64-byte cache lines,
// whatever T is and whatever the allocator placed around them, so they share
// none with a neighbouring set that another goroutine inserts into
// (control's TestNoSharedLinesOnThePacketPath checks the rest of the path).
func TestHotWordsOwnTheirLines(t *testing.T) {
	var keep []*Windows // live neighbours, as a System's sets are
	for T := 1; T <= 20; T++ {
		for n := 0; n < 8; n++ {
			w, err := New(Config{M0: 0, K: 3, Alpha: 1, T: T, MinPktTxDelayNs: 1.25}, nil)
			if err != nil {
				t.Fatal(err)
			}
			keep = append(keep, w)
			if at, size := uintptr(unsafe.Pointer(w)), unsafe.Sizeof(*w); at%64 != 0 || size%64 != 0 {
				t.Fatalf("T=%d: Windows at %#x, %d bytes: not whole cache lines", T, at, size)
			}
			if at, size := uintptr(unsafe.Pointer(unsafe.SliceData(w.passes))), cap(w.passes)*8; at%64 != 0 || size%64 != 0 || len(w.passes) != T {
				t.Fatalf("T=%d: passes at %#x, %d of %d bytes in use: not whole cache lines", T, at, len(w.passes)*8, size)
			}
		}
	}
	if len(keep[0].Passes()) != 1 {
		t.Fatal("Passes() exposes the padding")
	}
}
