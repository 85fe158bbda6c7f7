package timewindow

import (
	"unsafe"

	"printqueue/internal/flow"
)

// The cell-list reference: what the reads of a window set keep, written as
// cell lists (cells_test.go) and by definition rather than by coverage
// arithmetic, and the linear scan that counts them. The index every read
// emits is held to these.

// unpack writes a written register into *c field by field.
func (r *Reg) unpack(c *Cell) {
	flow.Packed{A: r.a, B: r.b}.Unpack(&c.Flow)
	c.CycleID = r.cycle
	c.Valid = true
}

// wholeCells is the paper's whole-register read as cell lists: every valid
// cell, stale ones included.
func wholeCells(w *Windows) *Snapshot {
	s := &Snapshot{cfg: w.cfg, pos: make([][]uint32, w.cfg.T), cells: make([][]Cell, w.cfg.T)}
	for i, regs := range w.windows {
		for j := range regs {
			if r := &regs[j]; r.b != 0 {
				var c Cell
				r.unpack(&c)
				s.pos[i], s.cells[i] = append(s.pos[i], uint32(j)), append(s.cells[i], c)
			}
		}
	}
	return s
}

// freezeCells is what Freeze keeps of w for the coverage (prev, freeze], by
// its definition: of the whole read, the cells Algorithm 3 retains whose TTS
// lies in the coverage, and window 0's anchor cell.
func freezeCells(w *Windows, prev, freeze uint64) *Snapshot {
	cfg := w.cfg
	whole := wholeCells(w)
	f := whole.anchors()
	s := &Snapshot{cfg: cfg, pos: make([][]uint32, cfg.T), cells: make([][]Cell, cfg.T)}
	for i := range whole.cells {
		shift := cfg.M0 + cfg.Alpha*uint(i)
		for n, c := range whole.cells[i] {
			j := int(whole.pos[i][n])
			tts := c.CycleID<<cfg.K | uint64(j)
			covered := freeze > prev && tts >= prev>>shift && tts <= (freeze-1)>>shift
			anchor := i == 0 && tts == f.anchorTTS[0]
			if f.survives(i, j, &c) && (covered || anchor) {
				s.pos[i], s.cells[i] = append(s.pos[i], uint32(j)), append(s.cells[i], c)
			}
		}
	}
	return s
}

// KeptCells returns the number of cells the snapshot lists.
func (s *Snapshot) KeptCells() int {
	n := 0
	for _, c := range s.cells {
		n += len(c)
	}
	return n
}

// MemBytes is the resident size of the cell lists: the cells, their
// positions and the slice headers.
func (s *Snapshot) MemBytes() int64 {
	return int64(len(s.pos)+len(s.cells))*24 + int64(s.KeptCells())*int64(unsafe.Sizeof(Cell{})+4)
}

// Windows materialises the snapshot as full register contents, one slice of
// cfg.Cells() cells per window with the cells it does not list zeroed.
func (s *Snapshot) Windows() [][]Cell {
	out := make([][]Cell, s.cfg.T)
	for i := range out {
		out[i] = make([]Cell, s.cfg.Cells())
		for n, p := range s.pos[i] {
			out[i][p] = s.cells[i][n]
		}
	}
	return out
}

// cellSpan returns the absolute dequeue-time range [start, end) covered by
// cell j of window i given its cycle ID.
func (f *Filtered) cellSpan(i int, cycleID uint64, j int) (start, end uint64) {
	start = (cycleID<<f.cfg.K | uint64(j)) << (f.cfg.M0 + f.cfg.Alpha*uint(i))
	return start, start + f.cfg.CellPeriod(i)
}

// AccumulateScanInto is the reference implementation of
// Filtered.AccumulateInto: a linear walk of every cell the snapshot lists,
// in every window, that keeps the cells the anchors Filter derives retain and
// counts those overlapping [start, end) — no index. Because both paths feed
// the same integer accumulator, their results are bit-identical. It returns
// the number of cells visited (all of them).
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

// QueryScan is Filter().Query on the reference scan path (every cell of
// every window). Results are bit-identical to it; only the work differs.
func (s *Snapshot) QueryScan(start, end uint64) flow.Counts {
	acc := NewAccumulator(s.cfg.T, s.cfg.Coefficients())
	s.AccumulateScanInto(acc, start, end)
	return acc.Counts()
}
