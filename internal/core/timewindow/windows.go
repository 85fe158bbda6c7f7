package timewindow

import (
	"slices"
	"unsafe"

	"printqueue/internal/flow"
)

// Cell is one register entry of a time window as a snapshot holds it: the
// stored packet's flow ID and the cycle ID distinguishing which pass of the
// ring buffer wrote it. Valid distinguishes a never-written cell from cycle
// 0. The live registers hold the same three things as integers (Reg); a
// frozen read unpacks them into cells.
type Cell struct {
	Flow    flow.Key
	CycleID uint64
	Valid   bool
}

// Reg is one live register of a time window: the packed flow ID and the
// cycle ID, three words the per-packet path loads and stores without ever
// assembling a struct of byte arrays. b is flow.Packed.B, whose bit 0 Pack
// always sets, so b != 0 is the written mark — the hardware's own encoding
// (a register whose flow ID is all-zero was never written) — and the zero
// Reg is a never-written register. The cycle ID keeps its 64 bits:
// truncating it to the paper's 32 would change answers at wrap.
type Reg struct {
	a, b  uint64
	cycle uint64
}

// unpack writes a written register into *c field by field (see
// flow.Packed.Unpack for why not by assigning a Cell built here).
func (r *Reg) unpack(c *Cell) {
	flow.Packed{A: r.a, B: r.b}.Unpack(&c.Flow)
	c.CycleID = r.cycle
	c.Valid = true
}

// Windows is one register set of T time windows. The data plane inserts
// every dequeued packet; the control plane snapshots the storage for query
// execution.
//
// Storage is externally provided so that a register File partition (one
// (dp, flip, port) view per window) can back it; New allocates private
// storage when none is given.
//
// One goroutine inserts into a Windows while its neighbours in memory belong
// to other ports, whose packets other goroutines insert. The struct is padded
// to whole 64-byte lines — Go's size classes then start it on one — so the
// word written per packet (inserted) shares a line with this set's own
// constants and with nothing of a neighbour's; passes, written per passed
// packet, is allocated in whole lines for the same reason.
type Windows struct {
	_ [(64 - unsafe.Sizeof(windowsFields{})%64) % 64]byte // first: a trailing zero-size field would itself be padded
	windowsFields
}

var _ [0]struct{} = [unsafe.Sizeof(Windows{}) % 64]struct{}{}

type windowsFields struct {
	cfg     Config
	windows [][]Reg // T slices of 2^k registers

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
// exactly cfg.T slices of cfg.Cells() registers, or be nil to allocate
// privately. The storage is used as-is: pre-existing (stale) contents are
// tolerated, exactly as re-used hardware register sets are, because the
// passing rule and Algorithm 3 discriminate by cycle ID.
func New(cfg Config, storage [][]Reg) (*Windows, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if storage == nil {
		storage = make([][]Reg, cfg.T)
		for i := range storage {
			storage[i] = make([]Reg, cfg.Cells())
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
	return &Windows{windowsFields: windowsFields{
		cfg:     cfg,
		windows: storage,
		m0:      cfg.M0,
		k:       cfg.K,
		alpha:   cfg.Alpha,
		kMask:   uint64(cfg.Cells() - 1),
		passes:  make([]uint64, cfg.T, (cfg.T+7)&^7), // whole lines of 8 words
	}}, nil
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
func (w *Windows) Insert(f flow.Key, deqTS uint64) { w.InsertPacked(f.Pack(), deqTS) }

// InsertPacked is Insert for a caller that has packed the flow ID already:
// the control plane packs it once per packet, for the windows and the
// monitor both.
func (w *Windows) InsertPacked(f flow.Packed, deqTS uint64) {
	w.inserted++
	tts := deqTS >> w.m0
	kMask, k, alpha := w.kMask, w.k, w.alpha
	windows := w.windows
	for i := 0; i < len(windows); i++ {
		idx := int(tts & kMask)
		cycle := tts >> k
		r := &windows[i][idx]
		evicted := *r
		r.a, r.b, r.cycle = f.A, f.B, cycle
		if evicted.b == 0 || cycle != evicted.cycle+1 {
			// Either nothing to pass, a same-cycle collision (drop the
			// evicted record), or a record too far in the past (deleted
			// asynchronously, as on hardware).
			return
		}
		// Pass the evicted packet to the next window as a new input.
		if i+1 < len(windows) {
			w.passes[i]++
		}
		f = flow.Packed{A: evicted.a, B: evicted.b}
		// The evicted packet's own TTS in this window is (cycle-1)<<k | idx;
		// shifting it right by alpha gives its position in the next window.
		tts = (evicted.cycle<<k | uint64(idx)) >> alpha
	}
}

// InsertAblationAlwaysPass is the ablation variant of Insert that passes
// every evicted packet regardless of cycle distance. It demonstrates why the
// paper's one-shot passing rule matters: without it, stale records flood the
// deeper windows and the Theorem-2 proportionality that Algorithm 2 relies
// on no longer holds.
func (w *Windows) InsertAblationAlwaysPass(f flow.Key, deqTS uint64) {
	w.inserted++
	p := f.Pack()
	tts := w.cfg.TTS(deqTS)
	kMask := uint64(w.cfg.Cells() - 1)
	for i := 0; i < w.cfg.T; i++ {
		idx := int(tts & kMask)
		cycle := tts >> w.cfg.K
		evicted := w.windows[i][idx]
		w.windows[i][idx] = Reg{a: p.A, b: p.B, cycle: cycle}
		if evicted.b == 0 || cycle == evicted.cycle {
			return
		}
		p = flow.Packed{A: evicted.a, B: evicted.b}
		tts = (evicted.cycle<<w.cfg.K | uint64(idx)) >> w.cfg.Alpha
	}
}

// Snapshot copies the current register contents into an immutable Snapshot
// for query execution. It models one frozen register read of the whole set —
// the paper's control-plane read — keeping every valid cell, stale ones
// included: standalone experiments, codec fixtures and benchmarks use it.
// The control plane retires Freeze's result instead.
func (w *Windows) Snapshot() *Snapshot {
	s := &Snapshot{cfg: w.cfg, pos: make([][]uint32, w.cfg.T), cells: make([][]Cell, w.cfg.T)}
	for i, regs := range w.windows {
		n := 0
		for j := range regs {
			if regs[j].b != 0 {
				n++
			}
		}
		pos, cells := make([]uint32, n), make([]Cell, n)
		at := 0
		for j := range regs {
			if r := &regs[j]; r.b != 0 {
				pos[at] = uint32(j)
				r.unpack(&cells[at])
				at++
			}
		}
		s.pos[i], s.cells[i] = pos, cells
	}
	return s
}

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
		if r := &w0[j]; r.b != 0 {
			if tts := r.cycle<<w.k | uint64(j); !found || tts > latest {
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
	// As in Snapshot, each window's runs are walked twice — count, then
	// unpack in place into lists allocated at their length.
	var buf [3]ringRun
	for i, anchor := range anchors {
		runs := w.coverageRuns(buf[:0], i, anchor, prevFreeze, freezeTime)
		n := 0
		for _, rr := range runs {
			run := w.windows[i][rr.from : rr.to+1]
			for j := range run {
				if r := &run[j]; r.b != 0 && r.cycle == rr.cycle {
					n++
				}
			}
		}
		pos, cells := make([]uint32, n), make([]Cell, n)
		at := 0
		for _, rr := range runs {
			run := w.windows[i][rr.from : rr.to+1]
			for j := range run {
				if r := &run[j]; r.b != 0 && r.cycle == rr.cycle {
					pos[at] = uint32(rr.from + j)
					r.unpack(&cells[at])
					at++
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
