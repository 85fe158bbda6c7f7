package timewindow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"printqueue/internal/flow"
)

// CellRef is one kept cell in a window's query index, in 8 bytes: its
// position in the span the window retains — its TTS less the window's base,
// the oldest TTS retained, Config.Base of the anchor — and the id of the flow
// it holds in the index's flow table. The cell's span start is (base + Pos)
// << (m0 + alpha*i). Within a window all spans share the window's cell
// period, so ascending positions make the set of cells overlapping any
// interval a contiguous run. K <= 24 keeps every position below 2^24.
type CellRef struct {
	Pos  uint32
	Flow int32
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
	// coeff is cfg.Coefficients(), shared read-only with every other read
	// of the same Config (sharedCoefficients): the vector depends on the
	// Config alone, and a read is taken per flip and per cold decode.
	coeff []float64
	// flows interns the distinct flows among kept cells; index entries
	// refer to flows by position here.
	flows []flow.Key
	// index[i] holds window i's kept cells in ascending position, relative
	// to the window's base, Config.Base(anchorTTS[i]). Queries
	// binary-search the overlapping run instead of walking all 2^k cells.
	index [][]CellRef
}

// newFiltered returns an empty read of cfg's windows: no anchor, nothing
// kept.
func newFiltered(cfg Config) *Filtered {
	f := &Filtered{
		cfg:       cfg,
		anchorTTS: make([]uint64, cfg.T),
		coeff:     sharedCoefficients(cfg),
		index:     make([][]CellRef, cfg.T),
	}
	return f
}

// coeffEntry is one Config's coefficient vector.
type coeffEntry struct {
	cfg   Config
	coeff []float64
}

// lastCoeff holds the coefficients of the Config most recently read. A
// process runs one Config or a few, so one entry serves nearly every read
// and bounds what a stream of distinct Configs (a fuzzer's) can pin.
var lastCoeff atomic.Pointer[coeffEntry]

// sharedCoefficients returns cfg.Coefficients(), computed once per run of
// reads under the same Config. The vector is shared: callers must not
// write to it.
func sharedCoefficients(cfg Config) []float64 {
	if e := lastCoeff.Load(); e != nil && e.cfg == cfg {
		return e.coeff
	}
	e := &coeffEntry{cfg: cfg, coeff: cfg.Coefficients()}
	lastCoeff.Store(e)
	return e.coeff
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
// back: window 0's anchor TTS (ok false for a read that found no cell), each
// live window's index, which window returns given the window's own anchor,
// then the flow table, adopted as is. The decoder guarantees what Freeze
// does: a window's refs ascend within its retained span, (anchor-2^k,
// anchor] in window coordinates, and refer into the flow table. An anchor
// past the last timestamp, whose span starts would wrap, is refused.
func NewFiltered(cfg Config, anchor uint64, ok bool, window func(i int, anchor uint64) ([]CellRef, error), flows func() []flow.Key) (*Filtered, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := newFiltered(cfg)
	if !ok {
		return f, nil
	}
	if anchor > cfg.TTS(^uint64(0)) {
		return nil, fmt.Errorf("timewindow: anchor %d past the last timestamp", anchor)
	}
	f.setAnchors(anchor)
	for i := 0; i < f.live; i++ {
		refs, err := window(i, f.anchorTTS[i])
		if err != nil {
			return nil, err
		}
		f.index[i] = refs
	}
	if fl := flows(); len(fl) > 0 {
		f.flows = fl
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

// Window returns window i's index: its kept cells in ascending position,
// relative to Config.Base of the window's anchor. The caller must treat it
// as read-only; the checkpoint codec walks it.
func (f *Filtered) Window(i int) []CellRef { return f.index[i] }

// KeptCells returns the number of cells the read keeps, over every window.
func (f *Filtered) KeptCells() int {
	n := 0
	for _, refs := range f.index {
		n += len(refs)
	}
	return n
}

// MemBytes estimates what the read owns: the ordered cell index at
// unsafe.Sizeof(CellRef{}) a cell, the interned flow table and the anchors.
// The coefficient vector is shared by every read of the Config and is not
// charged. The hot tier's history gauge and the cold cache charge it.
func (f *Filtered) MemBytes() int64 {
	n := int64(len(f.anchorTTS))*8 + int64(len(f.flows))*16
	for _, refs := range f.index {
		n += int64(len(refs)) * int64(unsafe.Sizeof(CellRef{}))
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
// [start, end), end > start. A cell's period [tts << shift, (tts+1) <<
// shift) overlaps iff start >> shift <= tts <= (end-1) >> shift; with
// positions ascending the overlapping cells are one contiguous run, found
// by two binary searches over positions, the bounds less the window's base
// — O(log 2^k) however many cells the window holds.
func (f *Filtered) overlapping(i int, start, end uint64) []CellRef {
	refs := f.index[i]
	base, shift := f.cfg.Base(f.anchorTTS[i]), f.cfg.M0+f.cfg.Alpha*uint(i)
	lo, hi := start>>shift, (end-1)>>shift
	if len(refs) == 0 || hi < base {
		return nil
	}
	loPos, hiPos := max(lo, base)-base, hi-base
	first := sort.Search(len(refs), func(j int) bool { return uint64(refs[j].Pos) >= loPos })
	last := first + sort.Search(len(refs)-first, func(j int) bool { return uint64(refs[first+j].Pos) > hiPos })
	return refs[first:last]
}

// AccumulateInto adds the surviving cells overlapping [start, end) into acc
// as integer per-window counts, touching only each window's overlapping run
// of the index — O(log 2^k + hits) per window instead of O(2^k). A dense
// per-flow scratch (interned ids, no map writes) gathers each window's
// counts before they are flushed to acc: into an accumulator that holds no
// row yet they are appended as they are, hashing no flow, because the
// checkpoint's flow table lists each flow once. It returns the number of
// index cells visited.
func (f *Filtered) AccumulateInto(acc *Accumulator, start, end uint64) int {
	if f.live == 0 || end <= start {
		return 0
	}
	t := f.cfg.T
	visited := 0
	sc := acquireFoldScratch(len(f.flows), t)
	for i := 0; i < f.live; i++ {
		run := f.overlapping(i, start, end)
		for _, ref := range run {
			if !sc.seen[ref.Flow] {
				sc.seen[ref.Flow] = true
				sc.touched = append(sc.touched, ref.Flow)
			}
			sc.cnt[int(ref.Flow)*t+i]++
		}
		visited += len(run)
	}
	fresh := acc.begin(len(sc.touched))
	for _, id := range sc.touched {
		row := sc.cnt[int(id)*t : int(id)*t+t]
		if fresh {
			acc.appendRow(f.flows[id], row)
		} else {
			acc.addRow(f.flows[id], row)
		}
	}
	sc.release(t)
	return visited
}

// foldScratch is AccumulateInto's dense per-flow scratch: cnt holds a row of
// T counts per flow id, seen marks the ids a fold has counted and touched
// lists them in first-counted order. Between folds every row and every flag
// is zero and touched is empty — release clears what the fold wrote, so
// neither taking nor returning one costs more than the cells visited, however
// large the biggest checkpoint a pooled scratch ever served.
type foldScratch struct {
	cnt     []int64
	seen    []bool
	touched []int32
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// acquireFoldScratch returns a zeroed scratch sized for flows ids of t
// windows. Each fold takes its own, so concurrent folds share nothing.
func acquireFoldScratch(flows, t int) *foldScratch {
	sc := foldScratchPool.Get().(*foldScratch)
	if n := flows * t; n <= cap(sc.cnt) {
		sc.cnt = sc.cnt[:n]
	} else {
		sc.cnt = make([]int64, n)
	}
	if flows <= cap(sc.seen) {
		sc.seen = sc.seen[:flows]
	} else {
		sc.seen = make([]bool, flows)
	}
	return sc
}

// release zeroes the rows and flags the fold touched and returns the scratch
// to the pool.
func (sc *foldScratch) release(t int) {
	for _, id := range sc.touched {
		clear(sc.cnt[int(id)*t : int(id)*t+t])
		sc.seen[id] = false
	}
	sc.touched = sc.touched[:0]
	foldScratchPool.Put(sc)
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
	ones := make([]float64, f.cfg.T)
	for i := range ones {
		ones[i] = 1
	}
	acc := NewAccumulator(f.cfg.T, ones)
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
