package timewindow

import (
	"math"
	"math/rand/v2"
	"testing"
)

// These tests validate the paper's Theorems 1–3 empirically: the analytic
// pass probabilities and the coefficient recursion must match what the data
// structure actually does under line-rate traffic.

// lineRateStream inserts n packets spaced ~d ns apart (line-rate
// forwarding with small jitter, as after queuing) and returns the windows.
func lineRateStream(t testing.TB, cfg Config, n int, seed uint64) *Windows {
	t.Helper()
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 99))
	var ts uint64
	d := cfg.MinPktTxDelayNs
	for i := 0; i < n; i++ {
		// Near-deterministic line-rate spacing: d +/- 20%.
		ts += uint64(d * (0.8 + 0.4*rng.Float64()))
		w.Insert(fkey(uint32(rng.IntN(64))), ts)
	}
	return w
}

// TestTheorem3FirstWindowZ checks z_0 = 2^m0 / d: the fraction of cells
// receiving a new packet each window period.
func TestTheorem3FirstWindowZ(t *testing.T) {
	cfg := Config{M0: 3, K: 10, Alpha: 1, T: 2, MinPktTxDelayNs: 10}
	n := 400000
	_ = lineRateStream(t, cfg, n, 1)
	// Inserted packets occupy ~z of cell slots: packets per window period
	// = z * 2^k. Equivalently, total span/d packets over span/cellPeriod
	// cell slots = z packets per slot. With <=1 packet per slot (spacing
	// >= 0.8d > cellPeriod), the hit fraction equals z.
	span := float64(n) * cfg.MinPktTxDelayNs
	slots := span / float64(cfg.CellPeriod(0))
	zEmp := float64(n) / slots
	zWant := cfg.Z0()
	if math.Abs(zEmp-zWant) > 0.05 {
		t.Fatalf("empirical z = %.3f, Theorem 3 predicts %.3f", zEmp, zWant)
	}
}

// TestTheorem1PassProbability checks that the per-cell pass probability
// into window 1 is z^2 (a pass needs hits in two consecutive window
// periods).
func TestTheorem1PassProbability(t *testing.T) {
	cfg := Config{M0: 3, K: 10, Alpha: 1, T: 2, MinPktTxDelayNs: 10}
	n := 400000
	w := lineRateStream(t, cfg, n, 2)
	z := cfg.Z0()
	// Expected passes: one potential pass per (cell, window period) with
	// probability z^2. Window periods elapsed ~ n*d / windowPeriod.
	periods := float64(n) * cfg.MinPktTxDelayNs / float64(cfg.WindowPeriod(0))
	expected := z * z * float64(cfg.Cells()) * periods
	got := float64(w.Passes()[0])
	if math.Abs(got-expected)/expected > 0.25 {
		t.Fatalf("passes into window 1 = %v, Theorem 1 predicts ~%v", got, expected)
	}
}

// TestTheorem2Coefficients checks the full coefficient recursion: the
// surviving per-window packet density after filtering matches
// coefficient[i] within tolerance.
func TestTheorem2Coefficients(t *testing.T) {
	cfg := Config{M0: 3, K: 10, Alpha: 2, T: 3, MinPktTxDelayNs: 10}
	w := lineRateStream(t, cfg, 600000, 3)
	coeff := cfg.Coefficients()
	f := w.Snapshot()
	for i := 0; i < cfg.T; i++ {
		lo, hi := f.WindowSpan(i)
		if hi <= lo {
			t.Fatalf("window %d has no span", i)
		}
		// Clip to the stream's actual extent.
		observed := 0.0
		for _, counts := range f.RawWindowCounts(lo, hi) {
			observed += counts.Total()
		}
		// True packets in the span: span / d.
		truth := float64(hi-lo) / cfg.MinPktTxDelayNs
		ratio := observed / truth
		if math.Abs(ratio-coeff[i])/coeff[i] > 0.3 {
			t.Errorf("window %d: survival ratio %.4f, coefficient[%d] = %.4f",
				i, ratio, i, coeff[i])
		}
	}
}

// TestTheorem2ProportionalRecovery checks the per-flow proportionality the
// recovery relies on: two flows with a 3:1 packet ratio keep roughly that
// ratio in every window's surviving cells.
func TestTheorem2ProportionalRecovery(t *testing.T) {
	cfg := Config{M0: 3, K: 10, Alpha: 1, T: 3, MinPktTxDelayNs: 10}
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 99))
	heavy, light := fkey(1), fkey(2)
	var ts uint64
	for i := 0; i < 600000; i++ {
		ts += uint64(10 * (0.8 + 0.4*rng.Float64()))
		f := heavy
		if rng.IntN(4) == 0 {
			f = light
		}
		w.Insert(f, ts)
	}
	filtered := w.Snapshot()
	for i := 1; i < cfg.T; i++ {
		lo, hi := filtered.WindowSpan(i)
		counts := filtered.RawWindowCounts(lo, hi)[i]
		if counts[light] == 0 {
			t.Fatalf("window %d lost the light flow entirely", i)
		}
		ratio := counts[heavy] / counts[light]
		if ratio < 2.0 || ratio > 4.5 {
			t.Errorf("window %d: heavy:light = %.2f, want ~3.0 (no flow bias)", i, ratio)
		}
	}
}

// TestRecoveredCountUnbiased: the coefficient-scaled estimate of a
// deep-window interval is an (approximately) unbiased estimator of the true
// count, averaged across seeds.
func TestRecoveredCountUnbiased(t *testing.T) {
	cfg := Config{M0: 3, K: 9, Alpha: 2, T: 3, MinPktTxDelayNs: 10}
	var relErrSum float64
	const trials = 8
	for seed := uint64(0); seed < trials; seed++ {
		w, _ := New(cfg, nil)
		rng := rand.New(rand.NewPCG(seed, 5))
		var ts uint64
		var times []uint64
		for i := 0; i < 200000; i++ {
			ts += uint64(10 * (0.8 + 0.4*rng.Float64()))
			w.Insert(fkey(uint32(rng.IntN(32))), ts)
			times = append(times, ts)
		}
		f := w.Snapshot()
		lo, hi := f.WindowSpan(1)
		est := f.Query(lo, hi).Total()
		var truth float64
		for _, x := range times {
			if x >= lo && x < hi {
				truth++
			}
		}
		relErrSum += (est - truth) / truth
	}
	if bias := relErrSum / trials; math.Abs(bias) > 0.15 {
		t.Fatalf("mean relative bias %.3f, want ~0", bias)
	}
}
