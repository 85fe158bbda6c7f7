package histstore

import (
	"fmt"

	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// The version-1 read path. A v1 record lists each window's valid cells with
// their ring positions and cycle IDs — whole registers, stale cells included,
// in the oldest logs — after a dictionary of every flow a cell or a monitor
// half names. It decodes into cell lists and runs Algorithm 3 over them, cell
// by cell, into the index a v2 record holds outright. Nothing writes v1; a
// v1 record is never rewritten.

// decodeWindowsV1 decodes a v1 record's flow dictionary and windows, r past
// the header.
func decodeWindowsV1(r *reader, cfg timewindow.Config) (*timewindow.Filtered, []flow.Key, error) {
	flows, err := decodeFlows(r, r.uvarint(), 0, true)
	if err != nil {
		return nil, nil, err
	}
	pos := make([][]uint32, cfg.T)
	cells := make([][]timewindow.Cell, cfg.T)
	for i := range pos {
		if pos[i], cells[i], err = decodeWindowV1(r, cfg.Cells(), flows); err != nil {
			return nil, nil, err
		}
	}
	s, err := timewindow.NewSparseSnapshot(cfg, pos, cells)
	if err != nil {
		return nil, nil, err
	}
	return s.Filter(), flows, nil
}

// decodeWindowV1 decodes one window of ring cells: the valid-cell count, the
// base cycle, then (skip, run) pairs — the gap in ring positions before a
// run of adjacent ones, and its length — each cell a flow id and a zigzag
// cycle delta against the previous one. It allocates for the valid cells the
// window declares, and a cell takes at least two payload bytes, so never for
// more than the payload has left.
func decodeWindowV1(r *reader, ring int, flows []flow.Key) ([]uint32, []timewindow.Cell, error) {
	nValid := r.uvarint()
	if r.err != nil {
		return nil, nil, r.err
	}
	if nValid == 0 {
		return nil, nil, nil
	}
	if nValid > uint64(ring) || nValid > uint64(len(r.b)-r.off)/2 {
		return nil, nil, fmt.Errorf("histstore: window claims %d valid cells of %d with %d bytes left", nValid, ring, len(r.b)-r.off)
	}
	pos := make([]uint32, 0, nValid)
	cells := make([]timewindow.Cell, 0, nValid)
	pred := r.uvarint()
	i := 0
	for uint64(len(cells)) < nValid {
		skip := r.uvarint()
		run := r.uvarint()
		if r.err != nil {
			return nil, nil, r.err
		}
		if skip > uint64(ring-i) || run == 0 || run > uint64(ring-i)-skip || uint64(len(cells))+run > nValid {
			return nil, nil, fmt.Errorf("histstore: window run (skip %d, run %d) overflows at cell %d", skip, run, i)
		}
		i += int(skip)
		for j := 0; j < int(run); j++ {
			id := r.uvarint()
			delta := r.zigzag()
			if r.err != nil {
				return nil, nil, r.err
			}
			if id >= uint64(len(flows)) {
				return nil, nil, fmt.Errorf("histstore: cell flow id %d out of dictionary (%d flows)", id, len(flows))
			}
			cycle := uint64(int64(pred) + delta)
			pos = append(pos, uint32(i))
			cells = append(cells, timewindow.Cell{Flow: flows[id], CycleID: cycle, Valid: true})
			pred = cycle
			i++
		}
	}
	return pos, cells, nil
}
