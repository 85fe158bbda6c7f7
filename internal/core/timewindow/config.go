// Package timewindow implements PrintQueue's hierarchical, probabilistic
// time-window structure (paper §4): T ring-buffer windows of 2^k cells whose
// cell periods grow by a factor 2^α per window, the per-packet mapping and
// passing rules (Algorithm 1), the coefficient-based packet-count recovery
// (Algorithm 2, Theorems 1–3), and the stale-cell filter used at query time
// (Algorithm 3).
package timewindow

import (
	"fmt"
	"math"
)

// Config parameterizes a set of time windows.
type Config struct {
	// M0 is log2 of window 0's cell period in ns. The paper sets it to
	// floor(log2(min_pkt_tx_delay)) so window 0 never sees a cell-level
	// collision within one cycle.
	M0 uint
	// K is log2 of the number of cells per window (paper default 12, i.e.
	// 4096 cells).
	K uint
	// Alpha is the compression factor: each successive window's cell period
	// is 2^Alpha times larger.
	Alpha uint
	// T is the number of windows.
	T int
	// MinPktTxDelayNs is d: the transmission delay, in ns, of the smallest
	// packet of the target workload at line rate. It seeds z = 2^M0/d for
	// the coefficient recursion (Theorem 3).
	MinPktTxDelayNs float64
}

// M0ForDelay returns floor(log2(d)) for a min-packet transmission delay of d
// nanoseconds — the paper's rule for choosing the first cell period.
func M0ForDelay(d float64) uint {
	if d < 2 {
		return 0
	}
	return uint(math.Floor(math.Log2(d)))
}

// MinPktTxDelay returns the transmission delay in ns of a packet of the
// given size at the given line rate.
func MinPktTxDelay(bytes int, linkBps uint64) float64 {
	return float64(bytes) * 8 * 1e9 / float64(linkBps)
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.T < 1 {
		return fmt.Errorf("timewindow: T must be >= 1, got %d", c.T)
	}
	if c.K == 0 || c.K > 24 {
		return fmt.Errorf("timewindow: k must be in [1,24], got %d", c.K)
	}
	if c.Alpha == 0 || c.Alpha > 8 {
		return fmt.Errorf("timewindow: alpha must be in [1,8], got %d", c.Alpha)
	}
	if c.M0+c.Alpha*uint(c.T-1)+c.K >= 63 {
		return fmt.Errorf("timewindow: m0+alpha*(T-1)+k = %d overflows the timestamp", c.M0+c.Alpha*uint(c.T-1)+c.K)
	}
	if !(c.MinPktTxDelayNs > 0) { // also refuses NaN
		return fmt.Errorf("timewindow: MinPktTxDelayNs must be > 0")
	}
	return nil
}

// Cells returns the number of cells per window, 2^k.
func (c Config) Cells() int { return 1 << c.K }

// CellPeriod returns the cell period of window i in ns: 2^(m0 + alpha*i).
func (c Config) CellPeriod(i int) uint64 { return 1 << (c.M0 + c.Alpha*uint(i)) }

// WindowPeriod returns the window period of window i in ns:
// 2^(m0 + alpha*i + k).
func (c Config) WindowPeriod(i int) uint64 { return 1 << (c.M0 + c.Alpha*uint(i) + c.K) }

// SetPeriod returns the contiguous timespan covered by the full set of T
// windows: sum_i 2^(m0+alpha*i+k) = (2^(alpha*T)-1)/(2^alpha-1) * 2^(m0+k).
func (c Config) SetPeriod() uint64 {
	var total uint64
	for i := 0; i < c.T; i++ {
		total += c.WindowPeriod(i)
	}
	return total
}

// Z0 returns z for the first window: 2^m0 / d, the probability that a cell
// stores a new packet each window period under line-rate forwarding
// (Theorem 3). The value is clamped just below 1 — z = 1 would make the
// recovery ratios degenerate, and it cannot be exceeded because the paper
// picks m0 so that 2^m0 <= d.
func (c Config) Z0() float64 {
	z := math.Exp2(float64(c.M0)) / c.MinPktTxDelayNs
	if z >= 1 {
		z = 1 - 1e-9
	}
	return z
}

// Coefficients implements Algorithm 2. coefficient[i] is the expected ratio
// of a flow's observed packet count in window i to its true packet count in
// window 0's fidelity; dividing an observed count by coefficient[i] recovers
// the estimate.
func (c Config) Coefficients() []float64 {
	coeff := make([]float64, c.T)
	coeff[0] = 1
	z := c.Z0()
	acc := 1.0
	twoAlpha := math.Exp2(float64(c.Alpha))
	for i := 1; i < c.T; i++ {
		p := 1 - z*z
		pPowTwoAlpha := math.Pow(p, twoAlpha)
		acc *= z * (1 - pPowTwoAlpha) / (1 - p) / twoAlpha
		coeff[i] = acc
		z = 1 - pPowTwoAlpha
	}
	return coeff
}

// TTS returns the trimmed timestamp for window 0: the dequeue timestamp
// shifted right by m0 (Figure 5).
func (c Config) TTS(deqTS uint64) uint64 { return deqTS >> c.M0 }

// Base returns the oldest TTS a window anchored at anchor retains, the
// origin of its index positions: the window keeps (anchor - 2^k, anchor],
// clipped at 0, so base is anchor - min(anchor, 2^k - 1).
func (c Config) Base(anchor uint64) uint64 {
	return anchor - min(anchor, uint64(c.Cells()-1))
}

// Split breaks a window-level TTS into its cycle ID and cell index: the k
// least-significant bits index the cell, the rest form the cycle ID.
func (c Config) Split(tts uint64) (cycleID uint64, index int) {
	return tts >> c.K, int(tts & uint64(c.Cells()-1))
}
