package histstore

import (
	"fmt"
	"sort"

	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// cellV1 is a valid ring cell as a version-1 record lists it.
type cellV1 struct {
	pos, id uint32 // ring position, the flow's dictionary id
	cycle   uint64
}

// decodeWindowsV1 is the version-1 read path: it decodes a v1 record's flow
// dictionary — every flow a cell or a monitor half names — and its windows'
// valid cells with their ring positions and cycle IDs (whole registers,
// stale cells included, in the oldest logs), r past the header, straight
// into the index a v2 record holds outright. Window 0's newest cell is the
// anchor; each live window keeps the cells Algorithm 3 does, their flows
// interned in index order as a read of the registers interns them. Nothing
// writes v1; a v1 record is never rewritten.
func decodeWindowsV1(r *reader, cfg timewindow.Config) (*timewindow.Filtered, []flow.Key, error) {
	flows, err := decodeFlows(r, r.uvarint(), 0, true)
	if err != nil {
		return nil, nil, err
	}
	windows := make([][]cellV1, cfg.T)
	for i := range windows {
		if windows[i], err = decodeWindowV1(r, cfg.Cells(), flows); err != nil {
			return nil, nil, err
		}
	}
	var anchor uint64
	for _, c := range windows[0] {
		anchor = max(anchor, c.cycle<<cfg.K|uint64(c.pos))
	}
	ids := flow.AcquireInterner()
	defer ids.Release()
	tw, err := timewindow.NewFiltered(cfg, anchor, len(windows[0]) > 0, func(i int, anchor uint64) (refs []timewindow.CellRef, _ error) {
		cells, base := windows[i], cfg.Base(anchor)
		cid, idx := cfg.Split(anchor)
		// Kept are the cells past the anchor's position in the cycle before
		// the anchor's (none before cycle 0), then those up to it in the
		// anchor's cycle: read in that order, their positions ascend.
		past := sort.Search(len(cells), func(m int) bool { return int(cells[m].pos) > idx })
		for n, run := range [2][]cellV1{cells[past:], cells[:past]} {
			for _, c := range run {
				if c.cycle == cid+uint64(n)-1 && (n == 1 || cid > 0) {
					refs = append(refs, timewindow.CellRef{Pos: uint32((c.cycle<<cfg.K | uint64(c.pos)) - base), Flow: ids.Intern(flows[c.id])})
				}
			}
		}
		return refs, nil
	}, func() []flow.Key { return append([]flow.Key(nil), ids.Keys()...) })
	return tw, flows, err
}

// decodeWindowV1 decodes one window of ring cells: the valid-cell count, the
// base cycle, then (skip, run) pairs — the gap in ring positions before a
// run of adjacent ones, and its length — each cell a flow id and a zigzag
// cycle delta against the previous one. It allocates for the valid cells the
// window declares, and a cell takes at least two payload bytes, so never for
// more than the payload has left.
func decodeWindowV1(r *reader, ring int, flows []flow.Key) ([]cellV1, error) {
	nValid := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nValid == 0 {
		return nil, nil
	}
	if nValid > uint64(ring) || nValid > uint64(len(r.b)-r.off)/2 {
		return nil, fmt.Errorf("histstore: window claims %d valid cells of %d with %d bytes left", nValid, ring, len(r.b)-r.off)
	}
	cells := make([]cellV1, 0, nValid)
	pred := r.uvarint()
	i := 0
	for uint64(len(cells)) < nValid {
		skip := r.uvarint()
		run := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if skip > uint64(ring-i) || run == 0 || run > uint64(ring-i)-skip || uint64(len(cells))+run > nValid {
			return nil, fmt.Errorf("histstore: window run (skip %d, run %d) overflows at cell %d", skip, run, i)
		}
		i += int(skip)
		for j := 0; j < int(run); j++ {
			id := r.uvarint()
			delta := r.zigzag()
			if r.err != nil {
				return nil, r.err
			}
			if id >= uint64(len(flows)) {
				return nil, fmt.Errorf("histstore: cell flow id %d out of dictionary (%d flows)", id, len(flows))
			}
			cycle := uint64(int64(pred) + delta)
			cells = append(cells, cellV1{pos: uint32(i), id: uint32(id), cycle: cycle})
			pred = cycle
			i++
		}
	}
	return cells, nil
}
