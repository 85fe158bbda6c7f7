package timewindow

import (
	"sort"

	"printqueue/internal/flow"
)

// CellRef is one kept cell in a window's query index: its absolute span
// start and the id of the flow it holds in the index's flow table. Within a
// window all spans share the window's cell period, so sorting by start makes
// the set of cells overlapping any interval a contiguous run.
type CellRef struct {
	Start uint64
	Flow  int32
}

// Filtered is a frozen read of a window set with Algorithm 3 applied: each
// window's retained anchor and the cells it keeps as an index in ascending
// span start, their flows interned into one table. It is the one form of a
// checkpoint's time windows — Windows.Freeze emits it, the hot tier holds it,
// the checkpoint codec writes and decodes it, and the cold cache keeps it —
// and holds no cell lists: a kept cell's cycle ID follows from its span
// start, which lies in its window's retained span.
type Filtered struct {
	cfg Config
	// anchorTTS[i] is the TTS (in window-i coordinates) of the newest cell
	// period retained in window i; window i retains TTS range
	// (anchorTTS[i] - 2^k, anchorTTS[i]]. Only windows below live have one.
	anchorTTS []uint64
	// live is the number of windows Algorithm 3 reached: 0 for an empty
	// read, T normally, fewer when the history does not extend far enough
	// past t=0 to give the deeper windows an anchor. Windows at or beyond
	// live retain nothing.
	live int
	// coeff caches cfg.Coefficients(): a Filtered is queried many times
	// (once per checkpoint per interval query), the coefficients never
	// change.
	coeff []float64
	// ones caches the all-ones coefficient vector for the no-recovery
	// ablation, so QueryWithoutCoefficients stops allocating it per call.
	ones []float64
	// flows interns the distinct flows among kept cells; index entries
	// refer to flows by position here.
	flows []flow.Key
	// index[i] holds window i's kept cells in ascending span start.
	// Queries binary-search the overlapping run instead of walking all 2^k
	// cells.
	index [][]CellRef
}

// newFiltered returns an empty read of cfg's windows: no anchor, nothing
// kept.
func newFiltered(cfg Config) *Filtered {
	f := &Filtered{
		cfg:       cfg,
		anchorTTS: make([]uint64, cfg.T),
		coeff:     cfg.Coefficients(),
		ones:      make([]float64, cfg.T),
		index:     make([][]CellRef, cfg.T),
	}
	for i := range f.ones {
		f.ones[i] = 1
	}
	return f
}

// setAnchors derives every window's anchor from window 0's, tts: each deeper
// window's is the most recently passed cell, TTS' = (TTS - 2^k) >> alpha,
// until the history no longer reaches past t=0.
func (f *Filtered) setAnchors(tts uint64) {
	cells := uint64(f.cfg.Cells())
	for i := 0; i < f.cfg.T; i++ {
		f.anchorTTS[i] = tts
		f.live = i + 1
		if tts < cells {
			// The history does not extend past t=0; deeper windows cannot
			// hold anything newer, and the subtraction below would wrap.
			break
		}
		tts = (tts - cells) >> f.cfg.Alpha
	}
}

// NewFiltered assembles a read from the parts a checkpoint decoder reads
// back: window 0's anchor TTS (ok false for a read that found no cell), the
// flow table, adopted as is, and each live window's index, which window
// returns given the window's own anchor. The decoder guarantees what Freeze
// does: a window's refs ascend within its retained span, (anchor-2^k,
// anchor] in window coordinates, and refer into flows.
func NewFiltered(cfg Config, anchor uint64, ok bool, flows []flow.Key, window func(i int, anchor uint64) ([]CellRef, error)) (*Filtered, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := newFiltered(cfg)
	if len(flows) > 0 {
		f.flows = flows
	}
	if !ok {
		return f, nil
	}
	f.setAnchors(anchor)
	for i := 0; i < f.live; i++ {
		refs, err := window(i, f.anchorTTS[i])
		if err != nil {
			return nil, err
		}
		f.index[i] = refs
	}
	return f, nil
}

// Filter returns f itself: a read is already filtered. It is kept for
// cmd/pqbench until the benchmark PR re-points the rung that times it.
func (f *Filtered) Filter() *Filtered { return f }

// Config returns the read's window configuration.
func (f *Filtered) Config() Config { return f.cfg }

// Anchor returns window i's anchor TTS, in window-i coordinates; every
// deeper window's follows from window 0's. ok is false when window i retains
// nothing: the read found no cell, or the history does not reach far enough
// past t=0 to give window i an anchor.
func (f *Filtered) Anchor(i int) (tts uint64, ok bool) {
	if i < 0 || i >= f.live {
		return 0, false
	}
	return f.anchorTTS[i], true
}

// Flows returns the flow table the index refers into. The caller must treat
// it as read-only.
func (f *Filtered) Flows() []flow.Key { return f.flows }

// Window returns window i's index: its kept cells in ascending span start.
// The caller must treat it as read-only; the checkpoint codec walks it.
func (f *Filtered) Window(i int) []CellRef { return f.index[i] }

// KeptCells returns the number of cells the read keeps, over every window.
func (f *Filtered) KeptCells() int {
	n := 0
	for _, refs := range f.index {
		n += len(refs)
	}
	return n
}

// MemBytes estimates the read's whole footprint: the ordered cell index, the
// interned flow table, the anchors and the coefficient vectors. The hot
// tier's history gauge and the cold cache charge it.
func (f *Filtered) MemBytes() int64 {
	n := int64(len(f.anchorTTS))*8 +
		int64(len(f.coeff)+len(f.ones))*8 + int64(len(f.flows))*16
	for _, refs := range f.index {
		n += int64(len(refs)) * 16
	}
	return n
}

// Empty reports whether the filtered snapshot holds no packets at all.
func (f *Filtered) Empty() bool { return f.live == 0 }

// WindowSpan returns the absolute dequeue-time range (start, end] retained
// by window i after filtering: one full window period ending at the anchor.
func (f *Filtered) WindowSpan(i int) (start, end uint64) {
	if f.live == 0 {
		return 0, 0
	}
	shift := f.cfg.M0 + f.cfg.Alpha*uint(i)
	end = (f.anchorTTS[i] + 1) << shift
	wp := f.cfg.WindowPeriod(i)
	if end < wp {
		return 0, end
	}
	return end - wp, end
}

// overlapping returns window i's index cells whose periods overlap
// [start, end). A cell [s, s+cp) overlaps iff s+cp > start and s < end; with
// starts ascending both predicates are monotone, so the overlapping cells
// are one contiguous run, found by two binary searches — O(log 2^k) however
// many cells the window holds.
func (f *Filtered) overlapping(i int, start, end uint64) []CellRef {
	refs := f.index[i]
	cp := f.cfg.CellPeriod(i)
	first := sort.Search(len(refs), func(j int) bool { return refs[j].Start+cp > start })
	last := first + sort.Search(len(refs)-first, func(j int) bool { return refs[first+j].Start >= end })
	return refs[first:last]
}

// RawWindowCounts returns, for each window, the observed (un-recovered)
// per-flow packet counts among surviving cells whose periods overlap
// [start, end). These are the direct register observations; Query applies
// the Algorithm-2 coefficients on top.
func (f *Filtered) RawWindowCounts(start, end uint64) []flow.Counts {
	out := make([]flow.Counts, f.cfg.T)
	for i := range out {
		out[i] = make(flow.Counts)
	}
	if end <= start {
		return out
	}
	for i := 0; i < f.live; i++ {
		for _, ref := range f.overlapping(i, start, end) {
			out[i].Add(f.flows[ref.Flow], 1)
		}
	}
	return out
}

// AccumulateInto adds the surviving cells overlapping [start, end) into acc
// as integer per-window counts, touching only each window's overlapping run
// of the index — O(log 2^k + hits) per window instead of O(2^k). A dense
// per-flow scratch (interned ids, no map writes) gathers each window's
// counts before they are flushed to acc. It returns the number of index
// cells visited.
func (f *Filtered) AccumulateInto(acc *Accumulator, start, end uint64) int {
	if f.live == 0 || end <= start {
		return 0
	}
	t := f.cfg.T
	visited := 0
	// Dense per-flow scratch rows (local interned ids, no map writes); each
	// touched flow is flushed to acc with a single interning lookup after all
	// windows are gathered.
	cnt := make([]int64, len(f.flows)*t)
	seen := make([]bool, len(f.flows))
	touched := make([]int32, 0, 64)
	for i := 0; i < f.live; i++ {
		run := f.overlapping(i, start, end)
		for _, ref := range run {
			if !seen[ref.Flow] {
				seen[ref.Flow] = true
				touched = append(touched, ref.Flow)
			}
			cnt[int(ref.Flow)*t+i]++
		}
		visited += len(run)
	}
	for _, id := range touched {
		acc.addRow(f.flows[id], cnt[int(id)*t:int(id)*t+t])
	}
	return visited
}

// Query estimates the per-flow packet counts dequeued during [start, end):
// it gathers surviving cells per window and divides each window's counts by
// coefficient[i] (Algorithm 2) to recover the pre-compression numbers, then
// aggregates across windows. This answers both direct-culprit queries
// (victim residence interval) and indirect-culprit queries (regime
// interval); the two differ only in the interval supplied.
func (f *Filtered) Query(start, end uint64) flow.Counts {
	acc := NewAccumulator(f.cfg.T, f.coeff)
	f.AccumulateInto(acc, start, end)
	return acc.Counts()
}

// QueryWithoutCoefficients is the ablation variant that sums raw window
// observations without Algorithm-2 recovery. Deep-window compression then
// shows up directly as under-estimation.
func (f *Filtered) QueryWithoutCoefficients(start, end uint64) flow.Counts {
	acc := NewAccumulator(f.cfg.T, f.ones)
	f.AccumulateInto(acc, start, end)
	return acc.Counts()
}

// QueryWindow estimates per-flow counts using only window i — the paper's
// Figure-12 per-window accuracy experiment queries a single window's full
// retained period this way. Every addend is the same 1/coefficient[i], so
// the index's order gives the float sums a cell walk would.
func (f *Filtered) QueryWindow(i int, start, end uint64) flow.Counts {
	out := make(flow.Counts)
	if end <= start || i < 0 || i >= f.live {
		return out
	}
	coeff := f.coeff[i]
	for _, ref := range f.overlapping(i, start, end) {
		out.Add(f.flows[ref.Flow], 1/coeff)
	}
	return out
}

// SurvivingCells returns the number of valid cells per window after
// filtering — a direct observable of the compression process used by tests
// and the ablation benchmarks.
func (f *Filtered) SurvivingCells() []int {
	out := make([]int, f.cfg.T)
	for i := range f.index {
		out[i] = len(f.index[i])
	}
	return out
}
