package timewindow

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"printqueue/internal/flow"
)

// TestFreezeAnswersLikeSnapshot is the coverage freeze's equivalence
// property, with no control plane involved: two window sets are rotated the
// way the control plane rotates them — dequeues in [lastFlip, now) go to the
// active set, a flip at now freezes it with coverage (lastFlip, now) and
// activates the other, never clearing anything — under seeded traffic with
// idle gaps, at poll periods below, at and above window 0's period. At every
// freeze, Freeze(prev, now) must be exactly the index the cell-list
// reference builds over the cells the freeze keeps by definition, and must derive the anchors
// Snapshot() does and give the same integer rows and raw window counts as it,
// and as the cell scan of the whole registers, for 100 random [lo, hi) inside
// the coverage. Every so often a freeze follows a flip directly, with one
// packet (stamped at the freeze, as a data-plane freeze's trigger packet is)
// or none in between: the set then holds nothing of its coverage and its
// anchor is a leftover.
func TestFreezeAnswersLikeSnapshot(t *testing.T) {
	cfg := Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10}
	for _, poll := range []uint64{cfg.WindowPeriod(0) / 4, cfg.WindowPeriod(0), cfg.SetPeriod(), 3 * cfg.SetPeriod()} {
		for _, startAt := range []uint64{0, 1 << 20} {
			t.Run(fmt.Sprintf("poll=%d/start=%d", poll, startAt), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(poll, startAt+9))
				var sets [2]*Windows
				for i := range sets {
					sets[i], _ = New(cfg, nil)
				}
				active, freezes, trimmed := 0, 0, 0
				now, lastFlip := startAt, startAt
				freeze := func() {
					w := sets[active]
					freezes++
					if kept, all := checkFreeze(t, rng, w, lastFlip, now); kept < all {
						trimmed++
					}
					active, lastFlip = 1-active, now
				}
				for freezes < 150 {
					now += uint64(1 + rng.IntN(20))
					if rng.IntN(500) == 0 {
						now += rng.Uint64N(4 * cfg.SetPeriod()) // idle: what the sets hold goes stale
					}
					if now-lastFlip >= poll {
						freeze()
						switch rng.IntN(6) {
						case 0: // a freeze right after the flip, nothing dequeued
							freeze()
						case 1: // one packet, stamped at the freeze itself
							sets[active].Insert(fkey(uint32(rng.IntN(50))), now)
							freeze()
						}
					}
					sets[active].Insert(fkey(uint32(rng.IntN(50))), now)
				}
				if trimmed < freezes/2 {
					t.Fatalf("%d freezes, only %d of them smaller than the whole-register read", freezes, trimmed)
				}
			})
		}
	}
}

// checkFreeze compares one coverage freeze of w with the cells it keeps by
// definition and with the whole-register read, and returns how many cells
// the freeze and the whole registers hold.
func checkFreeze(t *testing.T, rng *rand.Rand, w *Windows, prev, freeze uint64) (kept, all int) {
	t.Helper()
	cfg := w.cfg
	ff, wf, cells := w.Freeze(prev, freeze), w.Snapshot(), wholeCells(w)
	if want := freezeCells(w, prev, freeze).Filter(); !reflect.DeepEqual(ff, want) {
		t.Fatalf("freeze (%d,%d]: the index differs from Filter over the cells a freeze keeps", prev, freeze)
	}
	if ff.live != wf.live || !reflect.DeepEqual(ff.anchorTTS, wf.anchorTTS) {
		t.Fatalf("freeze (%d,%d]: anchors %v (live %d), whole-register read %v (live %d)",
			prev, freeze, ff.anchorTTS, ff.live, wf.anchorTTS, wf.live)
	}
	coeff := cfg.Coefficients()
	for q := 0; q < 100 && freeze > prev; q++ {
		lo := prev + rng.Uint64N(freeze-prev)
		hi := lo + 1 + rng.Uint64N(freeze-lo)
		switch q {
		case 0:
			lo, hi = prev, freeze
		case 1:
			lo, hi = prev, prev+1
		case 2:
			lo, hi = freeze-1, freeze
		}
		a, b, c := NewAccumulator(cfg.T, coeff), NewAccumulator(cfg.T, coeff), NewAccumulator(cfg.T, coeff)
		ff.AccumulateInto(a, lo, hi)
		wf.AccumulateInto(b, lo, hi)
		cells.AccumulateScanInto(c, lo, hi)
		if got, want := rowsOf(a), rowsOf(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("freeze (%d,%d]: rows over [%d,%d) = %v, whole-register read %v", prev, freeze, lo, hi, got, want)
		}
		if got, want := rowsOf(a), rowsOf(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("freeze (%d,%d]: rows over [%d,%d) = %v, cell scan %v", prev, freeze, lo, hi, got, want)
		}
		if got, want := ff.RawWindowCounts(lo, hi), wf.RawWindowCounts(lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("freeze (%d,%d]: raw counts over [%d,%d) = %v, whole-register read %v", prev, freeze, lo, hi, got, want)
		}
	}
	return ff.KeptCells(), cells.KeptCells()
}

// Register geometries of the paper's UW and WS presets: 100 B and MTU
// packets at 10 Gbps.
var (
	uwConfig = Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	wsConfig = Config{M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelayNs: 1200}
)

// longRun returns a window set of cfg that has taken four set periods of
// packets, one every gap to 2·gap ns from flows flows, and the time of the
// last.
func longRun(cfg Config, gap uint64, flows int) (*Windows, uint64) {
	w, _ := New(cfg, nil)
	rng := rand.New(rand.NewPCG(7, 8))
	var ts uint64
	for ts < 4*cfg.SetPeriod() {
		ts += gap + rng.Uint64N(gap)
		w.Insert(fkey(uint32(rng.IntN(flows))), ts)
	}
	return w, ts
}

// cloneFiltered is a deep copy of f.
func cloneFiltered(f *Filtered) *Filtered {
	g := *f
	g.anchorTTS = append([]uint64(nil), f.anchorTTS...)
	g.flows = append([]flow.Key(nil), f.flows...)
	g.index = make([][]CellRef, len(f.index))
	for i, refs := range f.index {
		if refs != nil {
			g.index[i] = append([]CellRef{}, refs...)
		}
	}
	return &g
}

// TestFreezeOwnsItsIndex: a read collects its cells in a scratch the reads
// share and copies them out, so later reads of the same registers, after
// more packets, leave an earlier read's anchors, index and flows as they
// were.
func TestFreezeOwnsItsIndex(t *testing.T) {
	w, ts := longRun(uwConfig, 80, 300)
	first, whole := w.Freeze(ts-1_000_000, ts+1), w.Snapshot()
	want, wantWhole := cloneFiltered(first), cloneFiltered(whole)
	rng := rand.New(rand.NewPCG(9, 10))
	for end := ts + 1_000_000; ts < end; {
		ts += 80 + rng.Uint64N(80)
		w.Insert(fkey(uint32(300+rng.IntN(300))), ts)
	}
	if again := w.Freeze(ts-1_000_000, ts+1); reflect.DeepEqual(again, want) {
		t.Fatal("the second freeze read what the first did: the check below shows nothing")
	}
	w.Snapshot()
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(whole, wantWhole) {
		t.Fatal("a later read changed an earlier one")
	}
}

// TestFreezeAllocBudget: a UW freeze of 1 ms allocates its index at 8 bytes
// a kept cell and its flow table at 16 bytes a flow, plus the read's
// headers and one page of size-class rounding; the scratch it collects the
// cells in is pooled.
func TestFreezeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	w, ts := longRun(uwConfig, 80, 3000)
	// One P: a pooled scratch is put back into the P's own slot, which a
	// goroutine that moved to another P would not find.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := w.Freeze(ts-1_000_000, ts+1)
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		w.Freeze(ts-1_000_000, ts+1)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	budget := uint64(8*f.KeptCells()+16*len(f.Flows())) + 9<<10
	t.Logf("%d kept cells, %d flows: %d bytes a freeze, budget %d", f.KeptCells(), len(f.Flows()), per, budget)
	if per > budget {
		t.Fatalf("a freeze of %d kept cells and %d flows allocates %d bytes, budget %d", f.KeptCells(), len(f.Flows()), per, budget)
	}
}

// BenchmarkFreeze prices one coverage freeze of 1 ms at the paper's UW and
// WS geometries, over registers that have run long past a set period.
func BenchmarkFreeze(b *testing.B) {
	for _, g := range []struct {
		name  string
		cfg   Config
		gap   uint64
		flows int
	}{
		{"UW", uwConfig, 80, 3000},
		{"WS", wsConfig, 1200, 30},
	} {
		w, ts := longRun(g.cfg, g.gap, g.flows)
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w.Freeze(ts-1_000_000, ts+1).Empty() {
					b.Fatal("empty")
				}
			}
		})
	}
}
