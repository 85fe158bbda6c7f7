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
// freeze Freeze(prev, now).Filter() and Snapshot().Filter() must derive the
// same anchors and give the same integer rows and raw window counts for 100
// random [lo, hi) inside the coverage. Every so often a freeze follows a
// flip directly, with one packet (stamped at the freeze, as a data-plane
// freeze's trigger packet is) or none in between: the set then holds nothing
// of its coverage and its anchor is a leftover.
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

// checkFreeze compares one coverage freeze of w with its whole-register
// snapshot and returns how many cells each holds.
func checkFreeze(t *testing.T, rng *rand.Rand, w *Windows, prev, freeze uint64) (kept, all int) {
	t.Helper()
	cfg := w.cfg
	fs, ws := w.Freeze(prev, freeze), w.Snapshot()
	if _, err := NewSparseSnapshot(cfg, fs.pos, fs.cells); err != nil {
		t.Fatalf("freeze (%d,%d]: %v", prev, freeze, err)
	}
	ff, wf := fs.Filter(), ws.Filter()
	if ff.live != wf.live || !reflect.DeepEqual(ff.anchorTTS, wf.anchorTTS) {
		t.Fatalf("freeze (%d,%d]: anchors %v (live %d), whole-register read %v (live %d)",
			prev, freeze, ff.anchorTTS, ff.live, wf.anchorTTS, wf.live)
	}
	for i := range fs.cells {
		for n := range fs.cells[i] {
			if !ff.survives(i, int(fs.pos[i][n]), &fs.cells[i][n]) {
				t.Fatalf("freeze (%d,%d]: window %d keeps a cell at %d that Algorithm 3 drops", prev, freeze, i, fs.pos[i][n])
			}
		}
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
		a, b := NewAccumulator(cfg.T, coeff), NewAccumulator(cfg.T, coeff)
		ff.AccumulateInto(a, lo, hi)
		wf.AccumulateInto(b, lo, hi)
		if got, want := rowsOf(a), rowsOf(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("freeze (%d,%d]: rows over [%d,%d) = %v, whole-register read %v", prev, freeze, lo, hi, got, want)
		}
		if got, want := ff.RawWindowCounts(lo, hi), wf.RawWindowCounts(lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("freeze (%d,%d]: raw counts over [%d,%d) = %v, whole-register read %v", prev, freeze, lo, hi, got, want)
		}
	}
	return fs.KeptCells(), ws.KeptCells()
}
