package timewindow

import (
	"fmt"

	"printqueue/internal/flow"
)

// Accumulator collects per-flow, per-window integer cell counts across any
// number of filtered snapshots sharing one Config, deferring the
// Algorithm-2 coefficient division to Counts. Keeping the intermediate
// state integral makes the aggregation exact and order-independent: a query
// split across checkpoints produces bit-identical estimates whatever order
// they are folded in, because integer addition is associative where float
// addition is not. The per-flow estimate is always the same left-to-right
// fold over window indices of count/coefficient.
//
// An Accumulator is not safe for concurrent use; each query folds into its
// own on the goroutine that runs it.
type Accumulator struct {
	t     int
	coeff []float64
	// ids finds a flow's row. It stays nil while the rows are one
	// checkpoint's fold, appended in the order that fold counted them: that
	// checkpoint's flow table interns each flow once, so they are distinct
	// and no row needs finding. A fold that adds to rows already held
	// builds it. (A forged record whose table lists a flow twice gives that
	// flow two rows, which Counts adds.)
	ids   map[flow.Key]int32
	flows []flow.Key
	// counts is row-major per flow: counts[id*t+i] is the number of
	// surviving cells of window i (across all accumulated snapshots)
	// holding the flow and overlapping the query interval.
	counts []int64
}

// NewAccumulator builds an empty accumulator for t windows with the given
// recovery coefficients (len >= t). Pass Config.Coefficients() for the
// paper's estimate, all-ones for the ablation without recovery, or nil for
// an accumulator FoldInterval fills.
func NewAccumulator(t int, coeff []float64) *Accumulator {
	return &Accumulator{t: t, coeff: coeff}
}

// add records n overlapping cells of window i for flow k.
func (a *Accumulator) add(k flow.Key, i int, n int64) {
	a.counts[int(a.intern(k))*a.t+i] += n
}

// intern returns the flow's id, appending a zeroed count row on first
// sight. The row is grown in place (fresh capacity from make is already
// zero, and rows are never truncated) to avoid a temporary slice per flow.
func (a *Accumulator) intern(k flow.Key) int32 {
	a.index()
	id, ok := a.ids[k]
	if !ok {
		id = int32(len(a.flows))
		a.ids[k] = id
		a.flows = append(a.flows, k)
		n := len(a.counts) + a.t
		if n <= cap(a.counts) {
			a.counts = a.counts[:n]
		} else {
			grown := make([]int64, n, 2*n+64)
			copy(grown, a.counts)
			a.counts = grown
		}
	}
	return id
}

// index builds ids over the rows held, if it is not built yet.
func (a *Accumulator) index() {
	if a.ids != nil {
		return
	}
	a.ids = make(map[flow.Key]int32, len(a.flows))
	for id, k := range a.flows {
		a.ids[k] = int32(id)
	}
}

// begin readies a for one checkpoint's fold of n distinct flows. It reports
// whether their rows may go in by appendRow, unhashed — they may when a
// holds no row yet — or must go in by addRow.
func (a *Accumulator) begin(n int) (fresh bool) {
	if len(a.flows) > 0 {
		return false
	}
	if cap(a.flows) < n {
		a.flows = make([]flow.Key, 0, n)
	}
	if cap(a.counts) < n*a.t {
		a.counts = make([]int64, 0, n*a.t)
	}
	return true
}

// appendRow appends flow k's per-window count row after begin reported
// fresh. len(row) must be a.t.
func (a *Accumulator) appendRow(k flow.Key, row []int64) {
	a.flows = append(a.flows, k)
	a.counts = append(a.counts, row...)
}

// addRow records a full per-window count row for flow k with a single
// interning lookup. len(row) must be a.t.
func (a *Accumulator) addRow(k flow.Key, row []int64) {
	id := a.intern(k)
	dst := a.counts[int(id)*a.t : int(id)*a.t+a.t]
	for i, n := range row {
		dst[i] += n
	}
}

// Counts applies the coefficients and materializes the per-flow estimates
// as a fresh Counts map. Each flow's estimate is the ascending-window fold
// of count/coefficient, so identical counts always produce bit-identical
// floats.
func (a *Accumulator) Counts() flow.Counts {
	out := make(flow.Counts, len(a.flows))
	for id, k := range a.flows {
		row := a.counts[id*a.t : (id+1)*a.t]
		var est float64
		for i, n := range row {
			if n != 0 {
				est += float64(n) / a.coeff[i]
			}
		}
		if est != 0 {
			out.Add(k, est)
		}
	}
	return out
}

// Covered is what the interval fold reads of a checkpoint, whichever tier
// holds it: the dequeue-time coverage (prevFreeze, freezeTime] of the frozen
// register read, and its time windows with Algorithm 3 applied.
type Covered interface {
	Coverage() (prevFreeze, freezeTime uint64)
	Filtered() *Filtered
}

// FoldInterval is the asynchronous query of §6.2–6.3, the one place an
// interval is answered from checkpoints: [start, end) is clamped to each
// checkpoint's coverage and the surviving cells overlapping what is left are
// counted per window into acc, whose Counts divides by cfg's coefficients
// once. acc is the caller's, built for cfg.T windows (NewAccumulator(cfg.T,
// nil): the coefficients arrive with the first checkpoint folded) — exact
// integers, so the answer does not depend on the order the run is folded
// in. It returns the index cells visited.
//
// Coverages are disjoint (every packet is dequeued into exactly one register
// set), so a checkpoint outside the interval contributes nothing and the run
// may be pruned by any coverage search, or not at all. A checkpoint frozen
// under another Config has different cell periods and coefficients: folding
// it would index past the accumulator's windows or scale its cells wrongly,
// so it is refused.
func FoldInterval[C Covered](acc *Accumulator, cfg Config, run []C, start, end uint64) (int, error) {
	cells := 0
	for _, cp := range run {
		prev, freeze := cp.Coverage()
		lo, hi := max(start, prev), min(end, freeze)
		if hi <= lo {
			continue
		}
		f := cp.Filtered()
		if f.cfg != cfg {
			return 0, fmt.Errorf("timewindow: checkpoint frozen at %d has window config %+v, the query folds %+v", freeze, f.cfg, cfg)
		}
		acc.coeff = f.coeff // cfg's own: Filter derived them from f.cfg
		cells += f.AccumulateInto(acc, lo, hi)
	}
	return cells, nil
}
