package timewindow

import (
	"math"
	"math/rand/v2"
	"testing"

	"printqueue/internal/flow"
)

func TestFilterEmpty(t *testing.T) {
	w, _ := New(smallConfig(), nil)
	f := w.Snapshot()
	if !f.Empty() {
		t.Fatal("empty window set not reported empty")
	}
	if c := f.Query(0, 100); len(c) != 0 {
		t.Fatalf("query on empty snapshot returned %v", c)
	}
}

// TestFilterStaleCells verifies Algorithm 3: cells older than one window
// period relative to the latest cell are removed.
func TestFilterStaleCells(t *testing.T) {
	cfg := smallConfig() // k=2: 4 cells, cell period 1 ns
	w, _ := New(cfg, nil)
	// Fill cells at TTS 0..3 (cycle 0), then write TTS 9 (cycle 2, idx 1).
	for i := 0; i < 4; i++ {
		w.Insert(fkey(uint32(i)), uint64(i))
	}
	w.Insert(fkey(99), 9)
	f := w.Snapshot()
	// Latest TTS = 9 (cycle 2, idx 1). Retained: idx <= 1 with cycle 2,
	// idx > 1 with cycle 1. The cycle-0 cells all die except... none:
	// cell 0 holds cycle 0 (!= 2) -> dead; cell 1 holds flow 99 (cycle 2)
	// -> live; cells 2,3 hold cycle 0 (!= 1) -> dead.
	counts := f.Query(0, 100)
	if len(counts) != 1 || counts[fkey(99)] != 1 {
		t.Fatalf("filtered counts = %v, want only flow 99", counts)
	}
}

func TestFilterRetainsOneWindowPeriod(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	// TTS 5, 6, 7 (cycle 1 idx 1,2,3) and TTS 8 (cycle 2 idx 0):
	// all within one window period of the latest.
	for i, ts := range []uint64{5, 6, 7, 8} {
		w.Insert(fkey(uint32(i)), ts)
	}
	f := w.Snapshot()
	counts := f.Query(0, 100)
	if len(counts) != 4 {
		t.Fatalf("retained %d flows, want 4: %v", len(counts), counts)
	}
}

// TestFilterAnchorChain checks the deeper-window anchor arithmetic
// TTS' = (TTS - 2^k) >> alpha and the resulting disjoint window spans.
func TestFilterAnchorChain(t *testing.T) {
	cfg := Config{M0: 2, K: 3, Alpha: 1, T: 3, MinPktTxDelayNs: 5}
	w, _ := New(cfg, nil)
	w.Insert(fkey(1), 400) // TTS 100: anchors the chain
	f := w.Snapshot()
	// anchor[0] = 100; anchor[1] = (100-8)>>1 = 46; anchor[2] = (46-8)>>1 = 19.
	want := []uint64{100, 46, 19}
	for i, a := range want {
		if f.anchorTTS[i] != a {
			t.Errorf("anchor[%d] = %d, want %d", i, f.anchorTTS[i], a)
		}
	}
	// Window spans must be adjacent and non-overlapping: span i's start
	// equals span i+1's end (up to the alpha rounding slop of one deep
	// cell).
	for i := 0; i < cfg.T-1; i++ {
		lo, _ := f.WindowSpan(i)
		_, hiNext := f.WindowSpan(i + 1)
		if hiNext > lo+cfg.CellPeriod(i+1) {
			t.Errorf("window %d span end %d overlaps window %d start %d", i+1, hiNext, i, lo)
		}
	}
}

func TestQueryIntervalSelectivity(t *testing.T) {
	cfg := smallConfig()
	w, _ := New(cfg, nil)
	w.Insert(fkey(1), 4)
	w.Insert(fkey(2), 7)
	f := w.Snapshot()
	// Query covering only TTS 4.
	counts := f.Query(4, 5)
	if counts[fkey(1)] != 1 || counts[fkey(2)] != 0 {
		t.Fatalf("selective query = %v", counts)
	}
	// Empty and inverted intervals return nothing.
	if c := f.Query(5, 5); len(c) != 0 {
		t.Fatalf("empty interval returned %v", c)
	}
	if c := f.Query(9, 5); len(c) != 0 {
		t.Fatalf("inverted interval returned %v", c)
	}
}

func TestQueryWindowBounds(t *testing.T) {
	w, _ := New(smallConfig(), nil)
	w.Insert(fkey(1), 4)
	f := w.Snapshot()
	if c := f.QueryWindow(-1, 0, 100); len(c) != 0 {
		t.Fatalf("negative window returned %v", c)
	}
	if c := f.QueryWindow(99, 0, 100); len(c) != 0 {
		t.Fatalf("out-of-range window returned %v", c)
	}
	if c := f.QueryWindow(0, 0, 100); c[fkey(1)] != 1 {
		t.Fatalf("window 0 query = %v", c)
	}
}

// TestProportionalRecovery drives a continuous line-rate stream through a
// realistic window set, then checks that the coefficient-scaled aggregate
// estimate for a deep-window interval is close to the true packet count —
// the Theorem 2/3 recovery in action.
func TestProportionalRecovery(t *testing.T) {
	cfg := Config{M0: 3, K: 8, Alpha: 1, T: 4, MinPktTxDelayNs: 10}
	w, _ := New(cfg, nil)
	rng := rand.New(rand.NewPCG(42, 0))
	// Packets every ~10 ns (z = 8/10 = 0.8), 200k packets, 16 flows.
	var ts uint64
	type rec struct {
		f  flow.Key
		ts uint64
	}
	var log []rec
	for i := 0; i < 200000; i++ {
		ts += uint64(5 + rng.IntN(11)) // mean 10 ns
		f := fkey(uint32(rng.IntN(16)))
		w.Insert(f, ts)
		log = append(log, rec{f, ts})
	}
	f := w.Snapshot()
	// Pick an interval that lands in window 2 (cell period 32 ns, window
	// period 8192 ns): 2-3 window-0 periods back from the end.
	end := ts - 2*cfg.WindowPeriod(0)
	start := end - 4000
	est := f.Query(start, end)
	var truth float64
	for _, r := range log {
		if r.ts >= start && r.ts < end {
			truth++
		}
	}
	got := est.Total()
	if truth == 0 {
		t.Fatal("test bug: empty truth interval")
	}
	if math.Abs(got-truth)/truth > 0.35 {
		t.Fatalf("aggregate estimate %v vs truth %v: error > 35%%", got, truth)
	}
	// The ablation without coefficients must under-estimate substantially.
	raw := f.QueryWithoutCoefficients(start, end).Total()
	if raw >= got {
		t.Fatalf("raw %v >= recovered %v; coefficients had no effect", raw, got)
	}
	if raw > 0.8*truth {
		t.Fatalf("raw estimate %v too close to truth %v; interval not compressed?", raw, truth)
	}
}

// TestSurvivingCellsDecreases checks compression: deeper windows hold fewer
// surviving packets per covered nanosecond.
func TestSurvivingCellsDecreases(t *testing.T) {
	cfg := Config{M0: 3, K: 8, Alpha: 2, T: 3, MinPktTxDelayNs: 10}
	w, _ := New(cfg, nil)
	rng := rand.New(rand.NewPCG(7, 0))
	var ts uint64
	for i := 0; i < 100000; i++ {
		ts += uint64(5 + rng.IntN(11))
		w.Insert(fkey(uint32(rng.IntN(8))), ts)
	}
	f := w.Snapshot()
	surv := f.SurvivingCells()
	if surv[0] == 0 {
		t.Fatal("window 0 empty after 100k inserts")
	}
	// Packets per nanosecond of coverage must drop with depth.
	density := func(i int) float64 {
		lo, hi := f.WindowSpan(i)
		if hi <= lo {
			return 0
		}
		return float64(surv[i]) / float64(hi-lo)
	}
	if !(density(0) > density(1) && density(1) > density(2)) {
		t.Fatalf("densities not decreasing: %v %v %v", density(0), density(1), density(2))
	}
}

// TestFaultInjectionStaleRegisters fills the backing registers with random
// garbage (a reused hardware register set, or corrupted state) before the
// stream starts: the cycle-ID discipline in the passing rule and Algorithm
// 3 must fence it all off, leaving recent-interval queries exact.
func TestFaultInjectionStaleRegisters(t *testing.T) {
	cfg := Config{M0: 3, K: 8, Alpha: 1, T: 3, MinPktTxDelayNs: 10}
	rng := rand.New(rand.NewPCG(21, 22))
	storage := make([][]Cell, cfg.T)
	for i := range storage {
		storage[i] = make([]Cell, cfg.Cells())
		for j := range storage[i] {
			storage[i][j] = Cell{
				Flow:    fkey(uint32(1000 + rng.IntN(50))),
				CycleID: rng.Uint64() % 1000,
				Valid:   rng.IntN(4) != 0,
			}
		}
	}
	w, err := New(cfg, packStorage(storage))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh stream far in the future of any garbage cycle IDs, sized to
	// fit inside the set period (14.3 us here) so nothing legitimately
	// ages out.
	base := uint64(1) << 40
	var ts uint64 = base
	truth := make(map[flow.Key]int)
	const n = 1000 // 10 us of stream
	for i := 0; i < n; i++ {
		ts += 10
		f := fkey(uint32(i % 8))
		w.Insert(f, ts)
		truth[f]++
	}
	counts := w.Snapshot().Query(base, ts+1)
	for f, cnt := range counts {
		if _, ours := truth[f]; !ours {
			t.Fatalf("stale flow %v leaked into the query with %v packets", f, cnt)
		}
	}
	if tot := counts.Total(); tot < 0.75*n || tot > 1.25*n {
		t.Fatalf("recovered %v of %d packets with garbage registers", tot, n)
	}
}
