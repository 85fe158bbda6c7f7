package timewindow

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
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

// BenchmarkFreeze prices one coverage freeze of 1 ms at the paper's UW and
// WS geometries (100 B and MTU packets at 10 Gbps), over registers that
// have run long past a set period.
func BenchmarkFreeze(b *testing.B) {
	for _, g := range []struct {
		name  string
		cfg   Config
		gap   uint64
		flows int
	}{
		{"UW", Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}, 80, 3000},
		{"WS", Config{M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelayNs: 1200}, 1200, 30},
	} {
		w, _ := New(g.cfg, nil)
		rng := rand.New(rand.NewPCG(7, 8))
		var ts uint64
		for ts < 4*g.cfg.SetPeriod() {
			ts += g.gap + rng.Uint64N(g.gap)
			w.Insert(fkey(uint32(rng.IntN(g.flows))), ts)
		}
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
