package timewindow

import (
	"fmt"
	"sort"

	"printqueue/internal/flow"
)

// Cell is one register entry as a version-1 checkpoint record lists it: the
// stored packet's flow ID and the cycle ID distinguishing which pass of the
// ring buffer wrote it. Valid distinguishes a never-written cell from cycle
// 0.
type Cell struct {
	Flow    flow.Key
	CycleID uint64
	Valid   bool
}

// Snapshot is a frozen read as a version-1 checkpoint record holds it: per
// window the ring positions that hold a valid cell, ascending, and the cells
// at them — stale ones included, in the whole-register records the oldest
// logs hold. It is the read-only path of the checkpoint codec and nothing
// else: a v1 record decodes into one, and Filter runs Algorithm 3 over it,
// the survival test cell by cell, into the index every other read emits
// directly.
type Snapshot struct {
	cfg Config
	// pos[i] lists, strictly ascending, the ring positions of window i's
	// kept cells; cells[i][n] is the cell at position pos[i][n]. Every listed
	// cell is Valid.
	pos   [][]uint32
	cells [][]Cell
}

// NewSparseSnapshot adopts sparse register contents — per window the
// ascending ring positions and the valid cells at them, as the checkpoint
// codec decodes a v1 record. The slices are adopted, not copied, and must not
// be mutated afterwards.
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
		shift := f.cfg.M0 + f.cfg.Alpha*uint(i)
		for t := range cells {
			m := first + t // the ring read oldest to newest
			if m >= len(cells) {
				m -= len(cells)
			}
			if c, j := &cells[m], int(pos[m]); f.survives(i, j, c) {
				refs = append(refs, CellRef{Start: (c.CycleID<<f.cfg.K | uint64(j)) << shift, Flow: ids.Intern(c.Flow)})
			}
		}
		f.index[i] = refs
	}
	f.flows = append([]flow.Key(nil), ids.Keys()...)
	ids.Release()
}
