package timewindow

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// frozen is a checkpoint as FoldInterval reads it: a coverage freeze and the
// coverage it was taken over.
type frozen struct {
	prev, freeze uint64
	f            *Filtered
	cells        *Snapshot // what the freeze keeps, as cell lists, for the scan
}

func (c frozen) Coverage() (uint64, uint64) { return c.prev, c.freeze }
func (c frozen) Filtered() *Filtered        { return c.f }

// rotate feeds n packets over two window sets the way the control plane
// rotates them — a flip every poll ns freezes the active set over its
// coverage and activates the other, never clearing it — and returns the
// checkpoints in freeze order.
func rotate(cfg Config, rng *rand.Rand, flows, n int, gap, poll uint64) []frozen {
	var sets [2]*Windows
	for i := range sets {
		sets[i], _ = New(cfg, nil)
	}
	var out []frozen
	active := 0
	now, lastFlip := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		now += 1 + rng.Uint64N(2*gap)
		if now-lastFlip >= poll {
			w := sets[active]
			out = append(out, frozen{prev: lastFlip, freeze: now, f: w.Freeze(lastFlip, now), cells: freezeCells(w, lastFlip, now)})
			active, lastFlip = 1-active, now
		}
		sets[active].Insert(fkey(uint32(rng.IntN(flows))), now)
	}
	return out
}

// scanFold is the oracle for a fold of run over [lo, hi): every
// checkpoint's kept cells walked one by one and counted through the
// accumulator's hashed path, each clamped to its coverage.
func scanFold(cfg Config, run []frozen, lo, hi uint64) *Accumulator {
	acc := NewAccumulator(cfg.T, cfg.Coefficients())
	for _, cp := range run {
		if l, h := max(lo, cp.prev), min(hi, cp.freeze); l < h {
			cp.cells.AccumulateScanInto(acc, l, h)
		}
	}
	return acc
}

// TestAccumulatorFoldsEqualScan: a fold of one checkpoint, which appends
// its rows and hashes no flow, and a fold of several, which adds to rows
// already held, give the integer rows and the bit-identical Counts the scan
// oracle does, over random intervals.
func TestAccumulatorFoldsEqualScan(t *testing.T) {
	cfg := Config{M0: 2, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 5}
	rng := rand.New(rand.NewPCG(33, 1))
	run := rotate(cfg, rng, 40, 20000, 4, 3*cfg.WindowPeriod(0))
	if len(run) < 8 {
		t.Fatalf("%d checkpoints; the fixture must rotate many", len(run))
	}
	same := func(name string, got, want *Accumulator) {
		t.Helper()
		if g, w := rowsOf(got), rowsOf(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: rows %v, scan %v", name, g, w)
		}
		if g, w := got.Counts(), want.Counts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: counts %v, scan %v", name, g, w)
		}
	}
	for q := 0; q < 300; q++ {
		i := rng.IntN(len(run) - 1)
		one, two := run[i], run[i+1]
		lo := one.prev + rng.Uint64N(two.freeze-one.prev)
		hi := lo + 1 + rng.Uint64N(two.freeze-lo)
		if q%3 == 0 { // inside one checkpoint
			lo = one.prev + rng.Uint64N(one.freeze-one.prev)
			hi = lo + 1 + rng.Uint64N(one.freeze-lo)
		}

		acc := NewAccumulator(cfg.T, nil)
		if _, err := FoldInterval(acc, cfg, run[i:i+1], lo, hi); err != nil {
			t.Fatal(err)
		}
		if acc.ids != nil {
			t.Fatalf("[%d,%d): a one-checkpoint fold built a map of %d flows", lo, hi, len(acc.ids))
		}
		same(fmt.Sprintf("one checkpoint [%d,%d)", lo, hi), acc, scanFold(cfg, run[i:i+1], lo, hi))

		multi := NewAccumulator(cfg.T, nil)
		if _, err := FoldInterval(multi, cfg, run, lo, hi); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("every checkpoint [%d,%d)", lo, hi), multi, scanFold(cfg, run, lo, hi))
	}
}

// BenchmarkFoldInterval prices the interval fold a narrow query runs — a
// 500 µs interval inside one UW checkpoint — and a fold across eight, each
// into a fresh accumulator with its Counts, as every query tier does.
func BenchmarkFoldInterval(b *testing.B) {
	cfg := Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	run := rotate(cfg, rand.New(rand.NewPCG(3, 4)), 300, 300_000, 40, 1_000_000)
	if len(run) < 9 {
		b.Fatalf("%d checkpoints", len(run))
	}
	run = run[1:9]
	for _, n := range []int{1, 8} {
		lo, hi := run[0].prev+250_000, run[0].prev+750_000
		if n > 1 {
			lo, hi = run[0].prev, run[n-1].freeze
		}
		b.Run(fmt.Sprintf("checkpoints=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := NewAccumulator(cfg.T, nil)
				if _, err := FoldInterval(acc, cfg, run[:n], lo, hi); err != nil {
					b.Fatal(err)
				}
				if len(acc.Counts()) == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}
