package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// quantile returns the q-quantile (0 < q <= 1) of sorted by nearest rank:
// the smallest sample with at least q of the samples at or below it.
// Nearest rank never interpolates, so a reported latency is always one a
// real operation had.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// reportedPercentiles are the percentiles the harness ever names, ascending.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// tailSamples is how many samples must lie beyond a percentile before the
// harness will stand behind it (choosing-metrics guide, section 1).
const tailSamples = 10

// highestPercentile returns the highest reported percentile that has at
// least tailSamples samples beyond it among n samples, or 0 when not even
// the median qualifies (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		if beyond := float64(n) * (1 - p/100); beyond >= tailSamples-1e-9 {
			best = p
		}
	}
	return best
}

// dist summarises latency samples: the percentiles the sample supports and
// the count behind them.
type dist struct {
	N       int
	Highest float64 // highest percentile with tailSamples beyond it; 0 = none
	sorted  []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{N: len(s), Highest: highestPercentile(len(s)), sorted: s}
}

// P returns percentile p (e.g. 99). It is always computed — a metric name
// must always carry a value — but Supported tells the reader whether the
// sample is large enough to trust it.
func (d dist) P(p float64) float64 { return quantile(d.sorted, p/100) }

// Supported reports whether percentile p has tailSamples samples beyond it.
func (d dist) Supported(p float64) bool { return d.Highest >= p }

func (d dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d", d.N)
	for _, p := range reportedPercentiles {
		if !d.Supported(p) {
			break
		}
		s += fmt.Sprintf(" p%g=%.4g", p, d.P(p))
	}
	if d.Highest == 0 {
		s += fmt.Sprintf(" (under 20 samples: median %.4g unsupported)", d.P(50))
	}
	return s
}

// spread is the run-to-run spread of one metric as the acceptance rule
// defines it: the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4)
// (the exclusive method).
type spread struct {
	N              int
	Q1, Median, Q3 float64
	Share          float64
}

func quartiles(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	sp := spread{N: n}
	if n == 0 {
		return sp
	}
	if n == 1 {
		sp.Q1, sp.Median, sp.Q3 = s[0], s[0], s[0]
		return sp
	}
	// Exclusive method: the i-th of m cut points sits at position
	// i*(n+1)/m (1-based) and is interpolated between its neighbours.
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	sp.Q1, sp.Median, sp.Q3 = cut(1), cut(2), cut(3)
	if sp.Median != 0 {
		sp.Share = math.Abs((sp.Q3 - sp.Q1) / sp.Median)
	}
	return sp
}

func median(values []float64) float64 { return quartiles(values).Median }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// procSample is one reading of the process-level meters.
type procSample struct {
	cpuNs   int64 // user+sys
	maxRSS  int64 // KiB
	alloc   uint64
	mallocs uint64
	gcFrac  float64
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		maxRSS:  int64(ru.Maxrss),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcFrac:  ms.GCCPUFraction,
	}
}

// cpuNow reads only the CPU clock; cheap enough to bracket a timed region
// without a stop-the-world ReadMemStats inside it.
func cpuNow() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}
