package main

import (
	"math"
	"testing"
	"time"
)

// A percentile is reported only with at least ten samples beyond it.
func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	d := newDist(make([]float64, 150))
	if !d.Supported(90) || d.Supported(99) {
		t.Errorf("150 samples: p90 supported=%v p99 supported=%v, want true/false", d.Supported(90), d.Supported(99))
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.05, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// The spread must be the one the driver computes: Python's
// statistics.quantiles(values, n=4), exclusive method.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	sp := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if sp.Q1 != 2.75 || sp.Median != 5.5 || sp.Q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", sp.Q1, sp.Median, sp.Q3)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(sp.Share-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", sp.Share, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if sp := quartiles([]float64{3, 1, 2}); sp.Q1 != 1 || sp.Median != 2 || sp.Q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %g %g %g, want 1 2 3", sp.Q1, sp.Median, sp.Q3)
	}
}

// The open-loop pacer charges the generator only with its own lateness: an
// overslept timer counts, time the program held the previous burst does not.
func TestPacerLateness(t *testing.T) {
	var clock int64
	pc := newPacer(1e6, 100) // a burst of 100 every 100 µs
	pc.nowFn = func() int64 { return clock }
	pc.sleepFn = func(d time.Duration) { clock += int64(d) + 7_000 } // timers fire 7 µs late

	pc.wait() // burst 0: due at once
	if got := pc.lateNs[0]; got != 0 {
		t.Fatalf("first burst late by %g ns, want 0", got)
	}
	clock += 10_000 // the program took 10 µs to accept burst 0
	pc.wait()       // burst 1 due at 100 µs: sleeps, wakes 7 µs late
	if got := pc.lateNs[1]; got != 7_000 {
		t.Errorf("overslept burst late by %g ns, want 7000", got)
	}
	clock += 500_000 // backpressure: the program held burst 1 for 500 µs
	pc.wait()        // burst 2 was due long ago; the generator starts it at once
	if got := pc.lateNs[2]; got != 0 {
		t.Errorf("burst after backpressure charged %g ns to the generator, want 0", got)
	}
	if pc.n != 300 {
		t.Errorf("scheduled %d packets, want 300", pc.n)
	}
}
