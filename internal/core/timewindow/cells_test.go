package timewindow

import (
	"sort"

	"printqueue/internal/flow"
)

// Cell is one register entry as a cell list holds it: the stored packet's
// flow ID and the cycle ID distinguishing which pass of the ring buffer
// wrote it. Valid distinguishes a never-written cell from cycle 0.
type Cell struct {
	Flow    flow.Key
	CycleID uint64
	Valid   bool
}

// Snapshot is a frozen read as a version-1 checkpoint record holds it: per
// window the ring positions that hold a valid cell, ascending, and the cells
// at them — stale ones included, as whole-register reads list them. It is
// the tests' reference by definition: Filter runs Algorithm 3 over it, the
// survival test cell by cell, into the index every read emits directly.
type Snapshot struct {
	cfg Config
	// pos[i] lists, strictly ascending, the ring positions of window i's
	// kept cells; cells[i][n] is the cell at position pos[i][n]. Every listed
	// cell is Valid.
	pos   [][]uint32
	cells [][]Cell
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

// Filter implements Algorithm 3 over the listed cells. It walks the windows
// from the most recent cell of window 0, retaining only cells in the latest
// cycle (or, for indices beyond the latest cell, the immediately preceding
// cycle), and derives each deeper window's anchor as the most recently passed
// cell: TTS' = (TTS - 2^k) >> alpha. It builds, once, the per-window index
// queries binary-search.
func (s *Snapshot) Filter() *Filtered {
	f := s.anchors()
	f.buildIndex(s)
	return f
}

// anchors derives Algorithm 3's per-window anchors: everything of Filter but
// the index.
func (s *Snapshot) anchors() *Filtered {
	f := newFiltered(s.cfg)
	if tts, ok := s.latestCell(); ok {
		f.setAnchors(tts)
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
		refs := make([]CellRef, 0, n)
		_, idx := f.cfg.Split(f.anchorTTS[i])
		first := sort.Search(len(pos), func(m int) bool { return int(pos[m]) > idx })
		base := f.cfg.Base(f.anchorTTS[i])
		for t := range cells {
			m := first + t // the ring read oldest to newest
			if m >= len(cells) {
				m -= len(cells)
			}
			if c, j := &cells[m], int(pos[m]); f.survives(i, j, c) {
				refs = append(refs, CellRef{Pos: uint32((c.CycleID<<f.cfg.K | uint64(j)) - base), Flow: ids.Intern(c.Flow)})
			}
		}
		f.index[i] = refs
	}
	f.flows = append([]flow.Key(nil), ids.Keys()...)
	ids.Release()
}

// The index's direct observables, which the tests hold reads to.

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

// SurvivingCells returns the number of valid cells per window after
// filtering — a direct observable of the compression process.
func (f *Filtered) SurvivingCells() []int {
	out := make([]int, f.cfg.T)
	for i := range f.index {
		out[i] = len(f.index[i])
	}
	return out
}
