package timewindow

import (
	"slices"

	"printqueue/internal/flow"
)

// Cell is one register entry of a time window: the stored packet's flow ID
// and the cycle ID distinguishing which pass of the ring buffer wrote it.
// Valid distinguishes a never-written cell from cycle 0 (hardware encodes
// this in the flow ID being all-zero; we keep an explicit bit for clarity).
type Cell struct {
	Flow    flow.Key
	CycleID uint64
	Valid   bool
}

// Windows is one register set of T time windows. The data plane inserts
// every dequeued packet; the control plane snapshots the storage for query
// execution.
//
// Storage is externally provided so that a register File partition (one
// (dp, flip, port) view per window) can back it; New allocates private
// storage when none is given.
type Windows struct {
	cfg     Config
	windows [][]Cell // T slices of 2^k cells

	// Hot-path constants hoisted out of Insert's per-window loop: every
	// packet walks up to T windows, so the mask/shift values are computed
	// once at construction instead of being re-derived from cfg per window.
	m0    uint
	k     uint
	alpha uint
	kMask uint64

	inserted uint64   // packets inserted since construction
	passes   []uint64 // passes[i]: packets passed from window i to i+1
}

// New builds a window set over the given storage. storage must contain
// exactly cfg.T slices of cfg.Cells() entries, or be nil to allocate
// privately. The storage is used as-is: pre-existing (stale) contents are
// tolerated, exactly as re-used hardware register sets are, because the
// passing rule and Algorithm 3 discriminate by cycle ID.
func New(cfg Config, storage [][]Cell) (*Windows, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if storage == nil {
		storage = make([][]Cell, cfg.T)
		for i := range storage {
			storage[i] = make([]Cell, cfg.Cells())
		}
	}
	if len(storage) != cfg.T {
		return nil, errStorage(cfg, len(storage))
	}
	for i := range storage {
		if len(storage[i]) != cfg.Cells() {
			return nil, errStorage(cfg, len(storage[i]))
		}
	}
	return &Windows{
		cfg:     cfg,
		windows: storage,
		m0:      cfg.M0,
		k:       cfg.K,
		alpha:   cfg.Alpha,
		kMask:   uint64(cfg.Cells() - 1),
		passes:  make([]uint64, cfg.T),
	}, nil
}

func errStorage(cfg Config, got int) error {
	return &storageError{want: cfg.T, cells: cfg.Cells(), got: got}
}

type storageError struct{ want, cells, got int }

func (e *storageError) Error() string {
	return "timewindow: storage shape mismatch (want " +
		itoa(e.want) + " windows of " + itoa(e.cells) + " cells, got " + itoa(e.got) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Config returns the window set's configuration.
func (w *Windows) Config() Config { return w.cfg }

// Inserted returns the number of packets inserted so far.
func (w *Windows) Inserted() uint64 { return w.inserted }

// Passes returns, per window, how many evicted packets were passed onward
// to the next window — the empirical counterpart of the Theorem 1/2 pass
// probabilities.
func (w *Windows) Passes() []uint64 {
	out := make([]uint64, len(w.passes))
	copy(out, w.passes)
	return out
}

// Insert records a dequeued packet, running Algorithm 1: map the packet to
// its cell in window 0 by trimmed timestamp; on collision, store the newer
// packet and pass the evicted one to the next window if and only if the new
// packet's cycle ID exceeds the evicted one's by exactly one ("one shot" —
// the window period immediately following the evicted packet's arrival).
func (w *Windows) Insert(f flow.Key, deqTS uint64) {
	w.inserted++
	tts := deqTS >> w.m0
	kMask, k, alpha := w.kMask, w.k, w.alpha
	windows := w.windows
	for i := 0; i < len(windows); i++ {
		cells := windows[i]
		idx := int(tts & kMask)
		cycle := tts >> k
		evicted := cells[idx]
		cells[idx] = Cell{Flow: f, CycleID: cycle, Valid: true}
		if !evicted.Valid || cycle != evicted.CycleID+1 {
			// Either nothing to pass, a same-cycle collision (drop the
			// evicted record), or a record too far in the past (deleted
			// asynchronously, as on hardware).
			return
		}
		// Pass the evicted packet to the next window as a new input.
		if i+1 < len(windows) {
			w.passes[i]++
		}
		f = evicted.Flow
		// The evicted packet's own TTS in this window is (cycle-1)<<k | idx;
		// shifting it right by alpha gives its position in the next window.
		tts = (evicted.CycleID<<k | uint64(idx)) >> alpha
	}
}

// InsertAblationAlwaysPass is the ablation variant of Insert that passes
// every evicted packet regardless of cycle distance. It demonstrates why the
// paper's one-shot passing rule matters: without it, stale records flood the
// deeper windows and the Theorem-2 proportionality that Algorithm 2 relies
// on no longer holds.
func (w *Windows) InsertAblationAlwaysPass(f flow.Key, deqTS uint64) {
	w.inserted++
	tts := w.cfg.TTS(deqTS)
	kMask := uint64(w.cfg.Cells() - 1)
	for i := 0; i < w.cfg.T; i++ {
		idx := int(tts & kMask)
		cycle := tts >> w.cfg.K
		evicted := w.windows[i][idx]
		w.windows[i][idx] = Cell{Flow: f, CycleID: cycle, Valid: true}
		if !evicted.Valid || cycle == evicted.CycleID {
			return
		}
		f = evicted.Flow
		tts = (evicted.CycleID<<w.cfg.K | uint64(idx)) >> w.cfg.Alpha
	}
}

// Snapshot copies the current register contents into an immutable Snapshot
// for query execution. It models one frozen register read of the whole set —
// the paper's control-plane read — keeping every valid cell, stale ones
// included: standalone experiments, codec fixtures and benchmarks use it.
// The control plane retires Freeze's result instead.
func (w *Windows) Snapshot() *Snapshot { return snapshotValid(w.cfg, w.windows) }

// Freeze is the frozen read the control plane retires at a flip: of the set's
// registers it copies what a query on the checkpoint can read, and no more.
// Interval queries clamp to the checkpoint's coverage — the dequeues in
// [prevFreeze, freezeTime) went to this set — and count only cells that
// survive Algorithm 3, so a cell is kept iff its TTS lies both in the
// coverage, [prevFreeze>>shift_i, (freezeTime-1)>>shift_i], and in the span
// window i retains, (anchor_i - 2^k, anchor_i], and its cycle ID is that
// TTS's: a survivor whose period overlaps the coverage. Everything else —
// stale cells of earlier activations, survivors that ended at or before
// prevFreeze — can never be counted. Window 0's anchor cell is kept even
// when the coverage misses it, so Filter on the result derives the same
// anchors, by the same chain, as on Snapshot()'s.
//
// A cell's ring position is its TTS's low k bits, so the positions to read
// follow from the coverage arithmetically: nothing is tracked per packet.
// The cost is one scan of window 0 for the latest cell plus the cells the
// coverage spans.
func (w *Windows) Freeze(prevFreeze, freezeTime uint64) *Snapshot {
	t := w.cfg.T
	s := &Snapshot{cfg: w.cfg, pos: make([][]uint32, t), cells: make([][]Cell, t)}
	var latest uint64
	found := false
	w0 := w.windows[0]
	for j := range w0 {
		if c := &w0[j]; c.Valid {
			if tts := c.CycleID<<w.k | uint64(j); !found || tts > latest {
				latest, found = tts, true
			}
		}
	}
	if !found {
		return s
	}
	// The anchors, by Filter's chain.
	anchors := make([]uint64, 0, t)
	for tts := latest; len(anchors) < t; tts = (tts - (w.kMask + 1)) >> w.alpha {
		anchors = append(anchors, tts)
		if tts <= w.kMask {
			break // the deeper windows have no anchor
		}
	}
	// As in snapshotValid, each window's runs are walked twice — count, then
	// copy into lists allocated at their size.
	var buf [3]ringRun
	for i, anchor := range anchors {
		runs := w.coverageRuns(buf[:0], i, anchor, prevFreeze, freezeTime)
		n := 0
		for _, r := range runs {
			run := w.windows[i][r.from : r.to+1]
			for j := range run {
				if c := &run[j]; c.Valid && c.CycleID == r.cycle {
					n++
				}
			}
		}
		pos, cells := make([]uint32, 0, n), make([]Cell, 0, n)
		for _, r := range runs {
			run := w.windows[i][r.from : r.to+1]
			for j := range run {
				if c := &run[j]; c.Valid && c.CycleID == r.cycle {
					pos, cells = append(pos, uint32(r.from+j)), append(cells, *c)
				}
			}
		}
		s.pos[i], s.cells[i] = pos, cells
	}
	return s
}

// ringRun is a run of ring positions (inclusive) with the one cycle ID a
// cell there must carry for Freeze to keep it.
type ringRun struct {
	from, to int
	cycle    uint64
}

// coverageRuns appends to rs, in ascending position, the runs of window i
// that Freeze reads: the TTS range common to the coverage and to the span the
// window retains behind its anchor — cut in two where it wraps the ring — and,
// in window 0, the anchor's own cell when that range misses it.
func (w *Windows) coverageRuns(rs []ringRun, i int, anchor, prevFreeze, freezeTime uint64) []ringRun {
	shift := w.m0 + w.alpha*uint(i)
	lo, hi := prevFreeze>>shift, anchor
	if anchor > w.kMask {
		lo = max(lo, anchor-w.kMask) // the window retains (anchor-2^k, anchor]
	}
	if freezeTime > prevFreeze {
		hi = min(hi, (freezeTime-1)>>shift)
	} else {
		lo = hi + 1 // an empty coverage
	}
	if lo <= hi {
		pl, ph := int(lo&w.kMask), int(hi&w.kMask)
		if pl <= ph {
			rs = append(rs, ringRun{pl, ph, lo >> w.k})
		} else {
			rs = append(rs, ringRun{0, ph, hi >> w.k}, ringRun{pl, int(w.kMask), lo >> w.k})
		}
	}
	if i == 0 && (lo > hi || hi < anchor) {
		// No other retained TTS shares the anchor's position, so it joins the
		// runs wherever ascending position puts it.
		p := int(anchor & w.kMask)
		at := 0
		for at < len(rs) && rs[at].from < p {
			at++
		}
		rs = slices.Insert(rs, at, ringRun{p, p, anchor >> w.k})
	}
	return rs
}

// EntriesPerSnapshot returns the register entries read per snapshot of this
// window set: T * 2^k.
func (c Config) EntriesPerSnapshot() int { return c.T * c.Cells() }
