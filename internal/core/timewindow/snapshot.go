package timewindow

import (
	"fmt"
	"sort"
	"unsafe"

	"printqueue/internal/flow"
)

// Snapshot is an immutable copy of a window set's registers, as captured by
// a frozen control-plane read. It stores valid cells only: per window the
// ring positions that hold one, ascending, and the cells at them. An
// untouched or mostly idle window costs nothing, and every reader walks the
// list instead of the 2^k-cell ring.
//
// Two reads produce one. Windows.Snapshot keeps every valid cell — the
// paper's whole-register read. Windows.Freeze keeps the cells a query
// clamped to the checkpoint's coverage can count (plus the anchor Algorithm 3
// starts from), which is what the control plane retires; queries on such a
// snapshot are only meaningful inside that coverage.
type Snapshot struct {
	cfg Config
	// pos[i] lists, strictly ascending, the ring positions of window i's
	// kept cells; cells[i][n] is the cell at position pos[i][n]. Every listed
	// cell is Valid.
	pos   [][]uint32
	cells [][]Cell
}

// Config returns the snapshot's window configuration.
func (s *Snapshot) Config() Config { return s.cfg }

// Window returns window i's kept cells: their ring positions, ascending, and
// the cells at them. The caller must treat both as read-only; the checkpoint
// codec walks them to build its on-disk encoding.
func (s *Snapshot) Window(i int) (pos []uint32, cells []Cell) { return s.pos[i], s.cells[i] }

// Windows materialises the snapshot as full register contents, one slice of
// cfg.Cells() cells per window with the cells the snapshot does not hold
// zeroed. It allocates the whole geometry and exists for tests and oracles;
// nothing on a query or checkpoint path calls it.
func (s *Snapshot) Windows() [][]Cell {
	per := s.cfg.Cells()
	flat := make([]Cell, s.cfg.T*per)
	out := make([][]Cell, s.cfg.T)
	for i := range out {
		out[i] = flat[i*per : (i+1)*per : (i+1)*per]
		for n, p := range s.pos[i] {
			out[i][p] = s.cells[i][n]
		}
	}
	return out
}

// NewSnapshot builds a Snapshot from full register contents — the inverse of
// Windows(). windows must contain exactly cfg.T slices of cfg.Cells() cells;
// the valid ones are copied. A snapshot rebuilt from the cells of another
// snapshot is bit-identical to it, so queries over the two produce the same
// results.
func NewSnapshot(cfg Config, windows [][]Cell) (*Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(windows) != cfg.T {
		return nil, errStorage(cfg, len(windows))
	}
	for i := range windows {
		if len(windows[i]) != cfg.Cells() {
			return nil, errStorage(cfg, len(windows[i]))
		}
	}
	return snapshotValid(cfg, windows), nil
}

// NewSparseSnapshot adopts already-sparse register contents — per window the
// ascending ring positions and the valid cells at them, as Window returns
// them and as the checkpoint codec decodes them. The slices are adopted, not
// copied, and must not be mutated afterwards.
func NewSparseSnapshot(cfg Config, pos [][]uint32, cells [][]Cell) (*Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) != cfg.T || len(cells) != cfg.T {
		return nil, errStorage(cfg, len(pos))
	}
	for i := range pos {
		if len(pos[i]) != len(cells[i]) {
			return nil, fmt.Errorf("timewindow: window %d lists %d positions for %d cells", i, len(pos[i]), len(cells[i]))
		}
		for n, p := range pos[i] {
			if int(p) >= cfg.Cells() || (n > 0 && p <= pos[i][n-1]) || !cells[i][n].Valid {
				return nil, fmt.Errorf("timewindow: window %d entry %d (position %d) is out of range, out of order or invalid", i, n, p)
			}
		}
	}
	return &Snapshot{cfg: cfg, pos: pos, cells: cells}, nil
}

// snapshotValid lists the valid cells of full register contents. Each window
// is walked twice — count, then copy into lists allocated at their size —
// and a window is small enough for the second walk to find it in cache, so
// the registers are read from memory once, as a plain copy reads them.
func snapshotValid(cfg Config, windows [][]Cell) *Snapshot {
	s := &Snapshot{cfg: cfg, pos: make([][]uint32, cfg.T), cells: make([][]Cell, cfg.T)}
	for i, w := range windows {
		n := 0
		for j := range w {
			if w[j].Valid {
				n++
			}
		}
		pos, cells := make([]uint32, 0, n), make([]Cell, 0, n)
		for j := range w {
			if w[j].Valid {
				pos, cells = append(pos, uint32(j)), append(cells, w[j])
			}
		}
		s.pos[i], s.cells[i] = pos, cells
	}
	return s
}

// cellMemBytes is the in-memory footprint of one register cell, used by the
// MemBytes estimates that drive the history byte budget and the on-disk
// compression ratio.
var cellMemBytes = int64(unsafe.Sizeof(Cell{}))

// MemBytes estimates the resident size of the snapshot: the kept cells, their
// positions and the slice headers. It is the "in-memory form" against which
// the checkpoint codec's encoded size is compared, and what the history byte
// budget and the cold cache are charged.
func (s *Snapshot) MemBytes() int64 {
	n := int64(len(s.pos)+len(s.cells)) * 24 // slice headers
	for _, c := range s.cells {
		n += int64(len(c)) * (cellMemBytes + 4)
	}
	return n
}

// KeptCells returns the number of cells the snapshot holds.
func (s *Snapshot) KeptCells() int {
	n := 0
	for _, c := range s.cells {
		n += len(c)
	}
	return n
}

// MemBytes estimates the filtered snapshot's whole footprint: the ordered
// cell index, the interned flow table, the anchors and the coefficient
// vectors. The hot tier's history gauge charges it beside the snapshot when
// a checkpoint's index is built; the cold cache charges it alone.
func (f *Filtered) MemBytes() int64 {
	n := int64(len(f.anchorTTS))*8 +
		int64(len(f.coeff)+len(f.ones))*8 + int64(len(f.flows))*16
	for _, refs := range f.index {
		n += int64(len(refs)) * 16
	}
	return n
}

// latestCell scans window 0 for the most recent valid cell and returns its
// window-0 TTS (cycleID<<k | index) — the paper's LatestCell(). ok is false
// if the window holds no valid cell.
func (s *Snapshot) latestCell() (tts uint64, ok bool) {
	k := s.cfg.K
	for n, c := range s.cells[0] {
		if t := c.CycleID<<k | uint64(s.pos[0][n]); !ok || t > tts {
			tts, ok = t, true
		}
	}
	return tts, ok
}

// cellRef is one surviving cell in a window's query index: its absolute
// span start and the interned id of the flow it holds. Within a window all
// spans share the window's cell period, so sorting by start makes the set
// of cells overlapping any interval a contiguous run.
type cellRef struct {
	start uint64
	flow  int32
}

// Filtered is a snapshot with Algorithm 3 applied, reduced to what interval
// queries read: each window's retained anchor and its surviving cells as an
// index in ascending span start, their flows interned. It holds no cells and
// keeps no reference to the snapshot it was built from, so a holder may drop
// that snapshot — the cold cache keeps nothing else.
type Filtered struct {
	cfg Config
	// anchorTTS[i] is the TTS (in window-i coordinates) of the newest cell
	// period retained in window i; window i retains TTS range
	// (anchorTTS[i] - 2^k, anchorTTS[i]]. Only windows below live have one.
	anchorTTS []uint64
	// live is the number of windows Algorithm 3 reached: 0 for an empty
	// snapshot, T normally, fewer when the history does not extend far
	// enough past t=0 to give the deeper windows an anchor. Windows at or
	// beyond live retain nothing.
	live int
	// coeff caches cfg.Coefficients(): a Filtered is queried many times
	// (once per checkpoint per interval query), the coefficients never
	// change.
	coeff []float64
	// ones caches the all-ones coefficient vector for the no-recovery
	// ablation, so QueryWithoutCoefficients stops allocating it per call.
	ones []float64
	// flows interns the distinct flows among surviving cells; index entries
	// refer to flows by position here.
	flows []flow.Key
	// index[i] holds window i's surviving cells in ascending span start.
	// Queries binary-search the overlapping run instead of walking all 2^k
	// cells.
	index [][]cellRef
}

// Filter implements Algorithm 3. It walks the windows from the most recent
// cell of window 0, retaining only cells in the latest cycle (or, for
// indices beyond the latest cell, the immediately preceding cycle), and
// derives each deeper window's anchor as the most recently passed cell:
// TTS' = (TTS - 2^k) >> alpha. It also builds, once, the per-window ordered
// cell index queries binary-search.
func (s *Snapshot) Filter() *Filtered {
	f := s.anchors()
	f.buildIndex(s)
	return f
}

// anchors derives Algorithm 3's per-window anchors: everything of Filter but
// the index, and all the reference scan needs to tell a retained cell from a
// stale one.
func (s *Snapshot) anchors() *Filtered {
	f := &Filtered{
		cfg:       s.cfg,
		anchorTTS: make([]uint64, s.cfg.T),
		coeff:     s.cfg.Coefficients(),
		ones:      make([]float64, s.cfg.T),
		index:     make([][]cellRef, s.cfg.T),
	}
	for i := range f.ones {
		f.ones[i] = 1
	}
	tts, ok := s.latestCell()
	if !ok {
		return f
	}
	cells := uint64(s.cfg.Cells())
	for i := 0; i < s.cfg.T; i++ {
		f.anchorTTS[i] = tts
		f.live = i + 1
		if tts < cells {
			// The history does not extend past t=0; deeper windows cannot
			// hold anything newer, and the subtraction below would wrap.
			break
		}
		tts = (tts - cells) >> s.cfg.Alpha
	}
	return f
}

// survives reports whether cell c at ring position j of window i is retained
// by Algorithm 3: it lies in the anchor's cycle at or before the anchor's
// index, or in the cycle before at an index beyond it. c comes from the
// snapshot's lists, so it is valid.
func (f *Filtered) survives(i, j int, c *Cell) bool {
	if i >= f.live {
		return false
	}
	cid, idx := f.cfg.Split(f.anchorTTS[i])
	if j <= idx {
		return c.CycleID == cid
	}
	return c.CycleID+1 == cid
}

// buildIndex interns s's surviving flows and lists each window's surviving
// cells in ascending span start. No sort is needed: with the anchor at
// (cid, idx), the survivors are the cells beyond idx, all of cycle cid-1,
// then the cells up to idx, all of cycle cid. A cell's span starts at
// (cycle<<k | j) << shift, so reading the ring from idx+1 around to idx —
// the position list rotated to start past idx — visits strictly ascending
// starts.
func (f *Filtered) buildIndex(s *Snapshot) {
	ids := flow.AcquireInterner()
	for i := 0; i < f.live; i++ {
		pos, cells := s.pos[i], s.cells[i]
		n := 0
		for m := range cells {
			if f.survives(i, int(pos[m]), &cells[m]) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		refs := make([]cellRef, 0, n)
		_, idx := f.cfg.Split(f.anchorTTS[i])
		first := sort.Search(len(pos), func(m int) bool { return int(pos[m]) > idx })
		for t := range cells {
			m := first + t // the ring read oldest to newest
			if m >= len(cells) {
				m -= len(cells)
			}
			if c, j := &cells[m], int(pos[m]); f.survives(i, j, c) {
				lo, _ := f.cellSpan(i, c.CycleID, j)
				refs = append(refs, cellRef{start: lo, flow: ids.Intern(c.Flow)})
			}
		}
		f.index[i] = refs
	}
	f.flows = append([]flow.Key(nil), ids.Keys()...)
	ids.Release()
}

// Empty reports whether the filtered snapshot holds no packets at all.
func (f *Filtered) Empty() bool { return f.live == 0 }

// cellSpan returns the absolute dequeue-time range [start, end) covered by
// cell j of window i given its cycle ID.
func (f *Filtered) cellSpan(i int, cycleID uint64, j int) (start, end uint64) {
	tts := cycleID<<f.cfg.K | uint64(j)
	shift := f.cfg.M0 + f.cfg.Alpha*uint(i)
	start = tts << shift
	return start, start + f.cfg.CellPeriod(i)
}

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
func (f *Filtered) overlapping(i int, start, end uint64) []cellRef {
	refs := f.index[i]
	cp := f.cfg.CellPeriod(i)
	first := sort.Search(len(refs), func(j int) bool { return refs[j].start+cp > start })
	last := first + sort.Search(len(refs)-first, func(j int) bool { return refs[first+j].start >= end })
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
			out[i].Add(f.flows[ref.flow], 1)
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
			if !seen[ref.flow] {
				seen[ref.flow] = true
				touched = append(touched, ref.flow)
			}
			cnt[int(ref.flow)*t+i]++
		}
		visited += len(run)
	}
	for _, id := range touched {
		acc.addRow(f.flows[id], cnt[int(id)*t:int(id)*t+t])
	}
	return visited
}

// AccumulateScanInto is the reference implementation of
// Filtered.AccumulateInto, kept for differential testing: a linear walk of
// every cell the snapshot holds, in every window, that keeps the cells the
// anchors Filter derives retain and counts those overlapping [start, end) —
// no index. Because both paths feed the same integer accumulator, their
// results are bit-identical. It returns the number of cells visited (all of
// them).
func (s *Snapshot) AccumulateScanInto(acc *Accumulator, start, end uint64) int {
	f := s.anchors()
	if f.live == 0 || end <= start {
		return 0
	}
	visited := 0
	for i := 0; i < s.cfg.T; i++ {
		pos, cells := s.pos[i], s.cells[i]
		visited += len(cells)
		for m := range cells {
			c, j := &cells[m], int(pos[m])
			if !f.survives(i, j, c) {
				continue
			}
			if lo, hi := f.cellSpan(i, c.CycleID, j); lo < end && hi > start {
				acc.add(c.Flow, i, 1)
			}
		}
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

// QueryScan is Filter().Query on the reference scan path (every cell of
// every window). Results are bit-identical to it; only the work differs.
func (s *Snapshot) QueryScan(start, end uint64) flow.Counts {
	acc := NewAccumulator(s.cfg.T, s.cfg.Coefficients())
	s.AccumulateScanInto(acc, start, end)
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
		out.Add(f.flows[ref.flow], 1/coeff)
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
