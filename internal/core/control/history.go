package control

// This file holds the checkpoint-history containers and the cold-tier query
// glue: the O(1) retirement ring for the hot (in-RAM) tier, and the bridge
// from interval queries to the durable histstore segment log.

import (
	"sort"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/timewindow"
)

// cpRing is a growable ring buffer of checkpoints ordered oldest to newest.
// While the history is unbounded (max == 0) it doubles like a slice; once
// it reaches the configured bound, every push overwrites the oldest slot in
// place, so steady-state retirement does no copying and recycles no memory
// beyond the evicted checkpoint itself.
type cpRing struct {
	buf  []*Checkpoint
	head int // index of the oldest checkpoint
	n    int
}

// push appends cp. When the ring already holds max checkpoints (max > 0),
// the oldest is overwritten in place and returned.
func (r *cpRing) push(cp *Checkpoint, max int) (evicted *Checkpoint) {
	if max > 0 && r.n >= max {
		evicted = r.buf[r.head]
		r.buf[r.head] = cp
		r.head = r.next(r.head)
		return evicted
	}
	if r.n == len(r.buf) {
		r.grow(max)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = cp
	r.n++
	return nil
}

// grow reallocates to double capacity (bounded by max when set),
// straightening the ring so head returns to 0.
func (r *cpRing) grow(max int) {
	newCap := len(r.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	if max > 0 && newCap > max {
		newCap = max
	}
	buf := make([]*Checkpoint, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf = buf
	r.head = 0
}

func (r *cpRing) next(i int) int {
	if i++; i == len(r.buf) {
		return 0
	}
	return i
}

// at returns the i-th oldest checkpoint.
func (r *cpRing) at(i int) *Checkpoint { return r.buf[(r.head+i)%len(r.buf)] }

func (r *cpRing) len() int { return r.n }

// slice copies the ring, oldest first, into a fresh slice.
func (r *cpRing) slice() []*Checkpoint {
	out := make([]*Checkpoint, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// pruneCopy binary-searches the logical (oldest-first) order for the
// contiguous run of checkpoints whose coverage (PrevFreeze, FreezeTime]
// overlaps [start, end) and copies only that run. It relies on the history
// invariants the retire path maintains: FreezeTime strictly ascending and
// PrevFreeze chained to the predecessor's FreezeTime, so both fields are
// monotone. Checkpoints outside the run contribute nothing (the fold's clamp
// would reject them), so pruning is lossless.
func (r *cpRing) pruneCopy(start, end uint64) []timewindow.Covered {
	lo := sort.Search(r.n, func(i int) bool { return r.at(i).FreezeTime > start })
	hi := sort.Search(r.n, func(i int) bool { return r.at(i).PrevFreeze >= end })
	if hi < lo {
		hi = lo
	}
	out := make([]timewindow.Covered, hi-lo)
	for i := range out {
		out[i] = r.at(lo + i)
	}
	return out
}

// nearest returns the logical index of the checkpoint whose freeze time is
// closest to t (the earlier one on a tie). The ring must not be empty.
func (r *cpRing) nearest(t uint64) int {
	i := sort.Search(r.n, func(i int) bool { return r.at(i).FreezeTime >= t })
	if i == r.n {
		return r.n - 1
	}
	if i == 0 {
		return 0
	}
	if r.at(i).FreezeTime-t < t-r.at(i-1).FreezeTime {
		return i
	}
	return i - 1
}

// coldRun fetches the cold-tier checkpoints for a query over [start, end)
// whose hot tier starts covering at hotStart. The tiers partition trace
// time exactly at hotStart — every checkpoint at or below it has been
// retired into the log, every one above it is in RAM — so the log is asked
// for [start, min(end, hotStart)) only and nothing is counted twice: what it
// returns ends at or below hotStart, and the hot checkpoints' own records
// in the log start at or above it. Returns nil when the store is absent, the
// interval is fully hot, or the store errors (queries degrade to hot-only
// rather than fail; decode errors are counted by the store).
func (s *System) coldRun(port int, start, end, hotStart uint64) []*histstore.ColdCheckpoint {
	coldEnd := min(end, hotStart)
	if s.hist == nil || coldEnd <= start {
		return nil
	}
	cold, err := s.hist.Covering(port, start, coldEnd)
	if err != nil {
		return nil
	}
	s.qpath.coldCheckpoints.Add(int64(len(cold)))
	return cold
}

// HistoryStats returns the durable history store's statistics; ok is false
// when the tiered history is disabled.
func (s *System) HistoryStats() (histstore.Stats, bool) {
	if s.hist == nil {
		return histstore.Stats{}, false
	}
	return s.hist.Stats(), true
}

// HistoryBytes returns the resident bytes of checkpoint history across the
// hot tier and the cold-tier LRU (the printqueue_history_bytes gauge).
func (s *System) HistoryBytes() int64 { return s.histBytes.Load() }

// CheckpointEntries returns, over every freeze so far, the register entries
// a hardware control plane would have read (whole arrays — Stats.EntriesRead)
// and the cells and monitor entries the checkpoints actually hold
// (printqueue_checkpoint_cells_kept_total). kept/read is what trimming a
// checkpoint to its coverage and its monitors' staircase saves.
func (s *System) CheckpointEntries() (read, kept int64) {
	return s.stats.entriesRead.Load(), s.stats.cellsKept.Load()
}

// Close releases the system's durable resources: it seals and closes the
// history store (if enabled). The in-RAM system remains queryable. Callers
// running a Pipeline must close it first.
func (s *System) Close() error {
	if s.hist == nil {
		return nil
	}
	return s.hist.Close()
}
