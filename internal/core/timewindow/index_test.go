package timewindow

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"printqueue/internal/flow"
)

// TestIndexedQueryMatchesScan is the core differential test of the cell
// index: for randomized snapshots and intervals, the indexed path must
// return bit-identical results to the reference full scan.
func TestIndexedQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			M0:              uint(rng.IntN(4)),
			K:               uint(2 + rng.IntN(5)),
			Alpha:           uint(1 + rng.IntN(3)),
			T:               1 + rng.IntN(4),
			MinPktTxDelayNs: 1.25,
		}
		w, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.IntN(3000)
		var ts uint64
		for i := 0; i < n; i++ {
			ts += uint64(1 + rng.IntN(200))
			w.Insert(fkey(uint32(rng.IntN(40))), ts)
		}
		s, f := wholeCells(w), w.Snapshot()
		horizon := ts + cfg.SetPeriod()
		for q := 0; q < 40; q++ {
			var lo, hi uint64
			switch q {
			case 0: // everything
				lo, hi = 0, horizon+1
			case 1: // empty interval
				lo, hi = horizon/2, horizon/2
			case 2: // inverted interval
				lo, hi = horizon/2+5, horizon/2
			case 3: // single nanosecond at t=0
				lo, hi = 0, 1
			case 4: // single-cell-period window at the end of the trace
				lo, hi = ts, ts+cfg.CellPeriod(0)
			default:
				lo = rng.Uint64N(horizon + 1)
				hi = lo + rng.Uint64N(horizon/4+2)
			}
			want := s.QueryScan(lo, hi)
			got := f.Query(lo, hi)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cfg %+v interval [%d,%d): indexed %v != scan %v",
					trial, cfg, lo, hi, got, want)
			}
		}
	}
}

// TestIndexedQueryEmptyAndSingleCell pins the degenerate shapes: an empty
// snapshot and a snapshot holding exactly one surviving cell.
func TestIndexedQueryEmptyAndSingleCell(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	f := w.Snapshot()
	if got := f.Query(0, 1000); len(got) != 0 {
		t.Fatalf("indexed query on empty snapshot returned %v", got)
	}
	acc := NewAccumulator(cfg.T, cfg.Coefficients())
	if cells := f.AccumulateInto(acc, 0, 1000); cells != 0 {
		t.Fatalf("empty snapshot visited %d cells", cells)
	}

	w2, _ := New(cfg, nil)
	w2.Insert(fkey(1), 5)
	s2, f2 := wholeCells(w2), w2.Snapshot()
	for _, iv := range [][2]uint64{{0, 1000}, {5, 6}, {0, 5}, {6, 1000}, {0, 1}} {
		want := s2.QueryScan(iv[0], iv[1])
		got := f2.Query(iv[0], iv[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("single-cell interval %v: indexed %v != scan %v", iv, got, want)
		}
	}
}

// TestIndexedQueryWrapAtZero exercises the Filter early-break branch where
// the history does not reach past t=0 (tts < 2^k), plus queries hugging
// the origin.
func TestIndexedQueryWrapAtZero(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	// All inserts within the first window cycle: deeper windows stay empty
	// and the anchor chain stops at t=0.
	for i := uint64(0); i < 4; i++ {
		w.Insert(fkey(uint32(i)), i)
	}
	s, f := wholeCells(w), w.Snapshot()
	for _, iv := range [][2]uint64{{0, 1}, {0, 4}, {1, 3}, {3, 4}, {0, 1000}, {4, 1000}} {
		want := s.QueryScan(iv[0], iv[1])
		got := f.Query(iv[0], iv[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wrap interval %v: indexed %v != scan %v", iv, got, want)
		}
	}
}

// TestAccumulatorMergeExact verifies that splitting an accumulation into
// shards and merging gives bit-identical results to serial accumulation,
// regardless of split point — the property the parallel query fan-out
// relies on.
func TestAccumulatorMergeExact(t *testing.T) {
	cfg := Config{M0: 1, K: 4, Alpha: 2, T: 3, MinPktTxDelayNs: 2.5}
	rng := rand.New(rand.NewPCG(3, 9))
	// Build several independent snapshots, as checkpoints would.
	var filtered []*Filtered
	var ts uint64
	for s := 0; s < 6; s++ {
		w, _ := New(cfg, nil)
		for i := 0; i < 400; i++ {
			ts += uint64(1 + rng.IntN(20))
			w.Insert(fkey(uint32(rng.IntN(12))), ts)
		}
		filtered = append(filtered, w.Snapshot())
	}
	lo, hi := uint64(0), ts+1
	coeff := cfg.Coefficients()

	serial := NewAccumulator(cfg.T, coeff)
	for _, f := range filtered {
		f.AccumulateInto(serial, lo, hi)
	}
	want := serial.Counts()

	for split := 1; split < len(filtered); split++ {
		a := NewAccumulator(cfg.T, coeff)
		b := NewAccumulator(cfg.T, coeff)
		for _, f := range filtered[:split] {
			f.AccumulateInto(a, lo, hi)
		}
		for _, f := range filtered[split:] {
			f.AccumulateInto(b, lo, hi)
		}
		a.Merge(b)
		if got := a.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: merged %v != serial %v", split, got, want)
		}
	}
}

// TestIndexedVisitsOnlyHits checks the index actually prunes work: a
// narrow query over a long trace must visit far fewer cells than the scan.
func TestIndexedVisitsOnlyHits(t *testing.T) {
	cfg := Config{M0: 0, K: 10, Alpha: 2, T: 4, MinPktTxDelayNs: 1.25}
	w, _ := New(cfg, nil)
	var ts uint64
	for i := 0; i < 50000; i++ {
		ts += 2
		w.Insert(fkey(uint32(i%64)), ts)
	}
	s, f := wholeCells(w), w.Snapshot()
	lo, hi := ts-16, ts // a handful of window-0 cells
	idxAcc := NewAccumulator(cfg.T, cfg.Coefficients())
	scanAcc := NewAccumulator(cfg.T, cfg.Coefficients())
	idxCells := f.AccumulateInto(idxAcc, lo, hi)
	scanCells := s.AccumulateScanInto(scanAcc, lo, hi)
	if scanCells != s.KeptCells() || scanCells < cfg.T*cfg.Cells()*3/4 {
		t.Fatalf("scan visited %d cells, want all %d the snapshot holds of %d registers", scanCells, s.KeptCells(), cfg.T*cfg.Cells())
	}
	if idxCells == 0 || idxCells*20 > scanCells {
		t.Fatalf("index visited %d cells vs scan %d; expected >20x reduction", idxCells, scanCells)
	}
	if !reflect.DeepEqual(idxAcc.Counts(), scanAcc.Counts()) {
		t.Fatal("narrow-interval indexed result != scan result")
	}
}

// TestQueryWithoutCoefficientsCached checks the ablation variant matches
// the raw (coefficient-free) window sums and no longer depends on a
// per-call ones slice.
func TestQueryWithoutCoefficientsCached(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	var ts uint64
	for i := 0; i < 200; i++ {
		ts += 2
		w.Insert(fkey(uint32(i%5)), ts)
	}
	f := w.Snapshot()
	got := f.QueryWithoutCoefficients(0, ts+1)
	// Oracle: sum the per-window raw counts directly.
	want := make(flow.Counts)
	for _, wc := range f.RawWindowCounts(0, ts+1) {
		for k, n := range wc {
			want[k] += n
		}
	}
	if len(got) != len(want) {
		t.Fatalf("flows: got %d want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("flow %v: got %v want %v", k, got[k], n)
		}
	}
}
