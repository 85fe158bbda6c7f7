package timewindow

import "testing"

// TestAccumulateIntoAllocs: a fresh accumulator's fold of one checkpoint
// builds no map — its rows are appended, two slices sized once — and once
// the scratch pool and the accumulator have seen a checkpoint's flows,
// folding it again allocates nothing: the dense rows, the seen flags and the
// touched list come back from the pool zeroed. A fold over a narrower
// interval of the same checkpoint does not either.
func TestAccumulateIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries on purpose under the race detector")
	}
	cfg := Config{M0: 0, K: 8, Alpha: 1, T: 4, MinPktTxDelayNs: 1.25}
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := uint64(0)
	for i := 0; i < 6000; i++ {
		ts += 1 + uint64(i%3)
		w.Insert(fkey(uint32(i*7919%300)), ts)
	}
	f := w.Snapshot()
	if len(f.Flows()) < 100 {
		t.Fatalf("read keeps %d flows; the fixture must fold many", len(f.Flows()))
	}
	coeff := cfg.Coefficients()
	acc := NewAccumulator(cfg.T, coeff)
	f.AccumulateInto(acc, 0, ts+1)
	if acc.ids != nil {
		t.Fatalf("a fresh accumulator's one-checkpoint fold built a map of %d flows", len(acc.ids))
	}
	// The accumulator itself, its flow list and its rows.
	if n := testing.AllocsPerRun(100, func() { f.AccumulateInto(NewAccumulator(cfg.T, coeff), 0, ts+1) }); n > 3 {
		t.Errorf("a fresh accumulator's one-checkpoint fold allocates %.0f/op, want 3", n)
	}
	for _, iv := range [][2]uint64{{0, ts + 1}, {ts / 2, ts/2 + 64}, {ts - 10, ts + 1}} {
		if n := testing.AllocsPerRun(100, func() { f.AccumulateInto(acc, iv[0], iv[1]) }); n != 0 {
			t.Errorf("warm fold of [%d, %d) allocates %.0f/op, want 0", iv[0], iv[1], n)
		}
	}
}
