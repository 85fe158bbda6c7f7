// Package qmonitor implements PrintQueue's queue monitor (paper §5): a
// sparse stack, indexed by queue depth, that retains the packets whose
// arrivals brought the queue to its current level — the "original culprits"
// of the congestion regime.
//
// Conceptually the monitor is a register array with one entry per
// buffer-allocation granule of queue depth, plus a stack-top register.
// Whenever a packet changes the observed depth from l1 to l2, its flow ID
// and a monotonically increasing sequence number are written to entry l2 —
// into the entry's upper half for increases, lower half for decreases — and
// the top pointer moves to l2. Stale entries left under the top by earlier,
// higher peaks are removed at query time by the sequence-number staircase
// walk (Filter).
package qmonitor

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"printqueue/internal/flow"
)

// Config parameterizes a queue monitor.
type Config struct {
	// MaxDepthCells is the maximum queue depth to track, in 80-byte cells.
	// Depths beyond it are clamped to the last entry.
	MaxDepthCells int
	// GranuleCells is the buffer-allocation granularity: one register entry
	// covers this many cells of depth. Must divide the array into at least
	// two entries.
	GranuleCells int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxDepthCells <= 0 {
		return fmt.Errorf("qmonitor: MaxDepthCells must be > 0, got %d", c.MaxDepthCells)
	}
	if c.GranuleCells <= 0 {
		return fmt.Errorf("qmonitor: GranuleCells must be > 0, got %d", c.GranuleCells)
	}
	if c.Entries() < 2 {
		return fmt.Errorf("qmonitor: fewer than 2 entries (max depth %d, granule %d)", c.MaxDepthCells, c.GranuleCells)
	}
	if c.Entries() > math.MaxUint32 {
		return fmt.Errorf("qmonitor: %d entries do not fit 32-bit levels (max depth %d, granule %d)", c.Entries(), c.MaxDepthCells, c.GranuleCells)
	}
	return nil
}

// Entries returns the register array length: max depth divided by the
// granule, plus the zero level.
func (c Config) Entries() int { return c.MaxDepthCells/c.GranuleCells + 1 }

// Level converts a depth in cells to a register level.
func (c Config) Level(depthCells int) int {
	if depthCells < 0 {
		depthCells = 0
	}
	l := depthCells / c.GranuleCells
	if max := c.Entries() - 1; l > max {
		l = max
	}
	return l
}

// Half is one half of a register entry as a snapshot holds it: the record of
// the packet that most recently moved the queue depth to this level in the
// given direction. Flow keeps the register's packed form, whose B has bit 0
// set on every key (flow.Packed): a half with Flow.B == 0 was never written.
type Half struct {
	Flow flow.Packed
	Seq  uint64
}

// Written reports whether the half holds a record.
func (h *Half) Written() bool { return h.Flow.B != 0 }

// Entry is one register entry as a snapshot holds it: the upper half records
// depth increases landing at this level, the lower half decreases. A frozen
// read keeps of a decrease only its sequence number, Down (0: none; a
// written half's is at least 1): no walk reports the packet that lowered the
// queue, every walk reads how recently it did.
type Entry struct {
	Up   Half
	Down uint64
}

// Reg is one live register of the monitor: an Entry's two halves as
// integers, so that Observe stores three words instead of assembling a
// struct of byte arrays. A half's b is flow.Packed.B, whose bit 0 Pack
// always sets: b != 0 is the written mark (as in timewindow.Reg), and the
// zero Reg is a never-written register. The sequence number keeps its 64
// bits.
type Reg struct{ up, down regHalf }

type regHalf struct{ a, b, seq uint64 }

// Monitor is one register set of the queue monitor. As with the time
// windows, storage may be supplied externally (a register-file partition)
// or allocated privately.
//
// Like timewindow.Windows, a Monitor is written per packet (top, seq,
// primed) by one goroutine while its neighbours in memory belong to other
// ports and other goroutines, so it is padded to whole 64-byte lines, which
// Go's size classes then align: no line of it holds anything of a
// neighbour's.
type Monitor struct {
	_ [(64 - unsafe.Sizeof(monitorFields{})%64) % 64]byte // first: a trailing zero-size field would itself be padded
	monitorFields
}

var _ [0]struct{} = [unsafe.Sizeof(Monitor{}) % 64]struct{}{}

type monitorFields struct {
	cfg  Config
	regs []Reg
	// Observe's level without a division per packet: depths in
	// (0, clampDepth) are multiplied by recip, a 64-bit reciprocal of
	// GranuleCells; deeper ones are the last level. recip is 0 when no such
	// reciprocal is exact (GranuleCells 1, clampDepth beyond 2^32), and the
	// division is made.
	recip      uint64
	clampDepth int

	top    int    // stack-top pointer: latest observed level
	seq    uint64 // monotonically increasing sequence number
	primed bool   // whether any packet has been observed
}

// New builds a monitor over the given storage (len == cfg.Entries()), or
// private storage if nil.
func New(cfg Config, storage []Reg) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if storage == nil {
		storage = make([]Reg, cfg.Entries())
	}
	if len(storage) != cfg.Entries() {
		return nil, fmt.Errorf("qmonitor: storage length %d, want %d", len(storage), cfg.Entries())
	}
	m := &Monitor{}
	m.cfg, m.regs = cfg, storage
	m.clampDepth = (cfg.Entries() - 1) * cfg.GranuleCells
	if g := uint64(cfg.GranuleCells); g > 1 && uint64(m.clampDepth) <= 1<<32 {
		// With r = ceil(2^64/g) and e = r*g - 2^64 < g, hi64(d*r) is
		// floor(d/g) whenever d*e < 2^64; d < clampDepth <= 2^32 and
		// e < g <= clampDepth, so it is.
		m.recip = math.MaxUint64/g + 1
	}
	return m, nil
}

// Config returns the monitor's configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Top returns the current stack-top level.
func (m *Monitor) Top() int { return m.top }

// Seq returns the current sequence counter.
func (m *Monitor) Seq() uint64 { return m.seq }

// Adopt seeds the monitor's top/seq state from another register set. The
// control plane uses it when flipping sets so the sequence numbers stay
// globally monotonic and the staircase filter keeps working across flips.
func (m *Monitor) Adopt(top int, seq uint64) {
	m.top = top
	m.seq = seq
	m.primed = true
}

// level is cfg.Level(depthCells).
func (m *Monitor) level(depthCells int) int {
	switch {
	case depthCells >= m.clampDepth:
		return len(m.regs) - 1
	case depthCells <= 0:
		return 0
	case m.recip == 0:
		return depthCells / m.cfg.GranuleCells // between the clamps, Level is this
	}
	hi, _ := bits.Mul64(uint64(depthCells), m.recip)
	return int(hi)
}

// Observe processes one packet in egress order with the queue depth (in
// cells) it saw at enqueue. If the depth level changed relative to the
// previous packet, the packet's flow is recorded at the new level with the
// next sequence number and the top pointer is updated.
func (m *Monitor) Observe(f flow.Key, enqDepthCells int) { m.ObservePacked(f.Pack(), enqDepthCells) }

// ObservePacked is Observe for a caller that has packed the flow ID already.
func (m *Monitor) ObservePacked(f flow.Packed, enqDepthCells int) {
	l2 := m.level(enqDepthCells)
	if m.primed && l2 == m.top {
		return
	}
	rising := !m.primed || l2 > m.top
	m.primed = true
	m.seq++
	h := &m.regs[l2].down
	if rising {
		h = &m.regs[l2].up
	}
	h.a, h.b, h.seq = f.A, f.B, m.seq
	m.top = l2
}

// Snapshot copies the register state for query execution: every occupied
// level of the array, as the paper's control plane reads it. Tests, codec
// fixtures and cmd/pqbench's snapshot rung use it; the control plane retires
// Freeze's result.
func (m *Monitor) Snapshot() *Snapshot {
	return m.read(func(s *Snapshot) {
		for i := range m.regs {
			if r := &m.regs[i]; r.up.b != 0 || r.down.b != 0 {
				s.appendLevel(i, &r.up, &r.down)
			}
		}
	})
}

// Freeze is the frozen read the control plane retires: the staircase, which
// is all any staircase walk will ever read of this freeze. Below the top it
// keeps a half only if its sequence number exceeds every one at lower levels
// of the same read: a half that does not can neither be a culprit nor raise
// the running maximum of any walk over this snapshot and others. Above the
// top it keeps nothing: such a record was left behind by a fall to a lower
// level, and that fall's record — lower down, with a larger sequence number —
// filters it out of every later walk. DESIGN.md §13 has both arguments
// across flips, Adopt, Merge and the eviction carry.
func (m *Monitor) Freeze() *Snapshot {
	return m.read(func(s *Snapshot) {
		regs := m.regs[:m.top+1]
		for i, run := 0, uint64(0); i < len(regs); i++ {
			var up, down *regHalf
			if up, down, run = regs[i].stair(run); up != nil || down != nil {
				s.appendLevel(i, up, down)
			}
		}
	})
}

// read returns a snapshot of the monitor's current top holding the levels
// fill appends. fill walks the registers once, into a pooled scratch, and
// the levels and entries are then copied out at exactly their length.
func (m *Monitor) read(fill func(s *Snapshot)) *Snapshot {
	sc := readScratchPool.Get().(*Snapshot)
	fill(sc)
	s := &Snapshot{cfg: m.cfg, levels: make([]uint32, len(sc.levels)), entries: make([]Entry, len(sc.entries)), top: m.top}
	copy(s.levels, sc.levels)
	copy(s.entries, sc.entries)
	sc.levels, sc.entries = sc.levels[:0], sc.entries[:0]
	readScratchPool.Put(sc)
	return s
}

// readScratchPool holds the snapshots reads collect their levels in: one
// read's levels, up to cfg.Entries(), never shared between reads.
var readScratchPool = sync.Pool{New: func() any { return new(Snapshot) }}

// stair returns the halves of r a staircase walk can use once the levels
// below have shown sequence numbers up to run — the written ones above it,
// nil for the others — and the running maximum after r's level.
func (r *Reg) stair(run uint64) (up, down *regHalf, next uint64) {
	next = run
	if r.up.b != 0 && r.up.seq > run {
		up, next = &r.up, r.up.seq
	}
	if r.down.b != 0 && r.down.seq > run {
		down, next = &r.down, max(next, r.down.seq)
	}
	return up, down, next
}

// appendLevel lists level with the given halves: of the rise its packed flow
// and sequence number, of the fall its sequence number; a nil or
// never-written half stays unwritten.
func (s *Snapshot) appendLevel(level int, up, down *regHalf) {
	var e Entry
	if up != nil && up.b != 0 {
		e.Up = Half{Flow: flow.Packed{A: up.a, B: up.b}, Seq: up.seq}
	}
	if down != nil && down.b != 0 {
		e.Down = down.seq
	}
	s.levels = append(s.levels, uint32(level))
	s.entries = append(s.entries, e)
}

// EntriesPerSnapshot returns the register entries read per snapshot (the
// array plus the top-pointer register).
func (c Config) EntriesPerSnapshot() int { return c.Entries() + 1 }

// Snapshot is a frozen copy of a queue monitor register set. It stores the
// entries it keeps only: their levels, ascending, and the entries at them,
// each with at least one written half. Every level it does not list is empty.
//
// Two reads produce one. Monitor.Snapshot lists every occupied level — the
// paper's whole-register read. Monitor.Freeze lists the staircase up to the
// top, which is what the control plane retires; every walk over such
// snapshots names the culprits the whole reads would.
type Snapshot struct {
	cfg     Config
	levels  []uint32
	entries []Entry // entries[n] is the entry at levels[n]
	top     int
}

// Config returns the snapshot's configuration.
func (s *Snapshot) Config() Config { return s.cfg }

// Top returns the snapshot's stack-top level.
func (s *Snapshot) Top() int { return s.top }

// Levels returns the kept entries: their levels, ascending, and the entries
// at them. The caller must treat both as read-only; the checkpoint codec
// walks them to build its on-disk encoding.
func (s *Snapshot) Levels() (levels []uint32, entries []Entry) { return s.levels, s.entries }

// Entries materialises the snapshot as the whole register array, indexed by
// level, with the entries it does not hold empty. It allocates cfg.Entries()
// entries and exists for tests and oracles; nothing on a query or checkpoint
// path calls it.
func (s *Snapshot) Entries() []Entry {
	out := make([]Entry, s.cfg.Entries())
	for n, level := range s.levels {
		out[level] = s.entries[n]
	}
	return out
}

// NewSnapshot reconstitutes a Snapshot from decoded register contents — the
// inverse of Levels(), used by the on-disk checkpoint codec. The slices are
// adopted, not copied: levels ascending below cfg.Entries(), each entry with
// a written rise or a fall's sequence number. A snapshot rebuilt this way
// answers like the one it was encoded from: Merge, OriginalCulprits and
// CulpritsAcross see the same state.
func NewSnapshot(cfg Config, levels []uint32, entries []Entry, top int) (*Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if top < 0 || top >= cfg.Entries() {
		return nil, fmt.Errorf("qmonitor: snapshot top %d out of range [0,%d)", top, cfg.Entries())
	}
	if len(levels) != len(entries) {
		return nil, fmt.Errorf("qmonitor: snapshot lists %d levels for %d entries", len(levels), len(entries))
	}
	for n, level := range levels {
		if int64(level) >= int64(cfg.Entries()) || (n > 0 && level <= levels[n-1]) || !(entries[n].Up.Written() || entries[n].Down != 0) {
			return nil, fmt.Errorf("qmonitor: snapshot entry %d (level %d) is out of range, out of order or empty", n, level)
		}
	}
	return &Snapshot{cfg: cfg, levels: levels, entries: entries, top: top}, nil
}

// entryMemBytes is the in-memory footprint of one kept entry and its level,
// used by the MemBytes estimate.
var entryMemBytes = int64(unsafe.Sizeof(Entry{}) + unsafe.Sizeof(uint32(0)))

// MemBytes estimates the resident size of the snapshot — the kept entries,
// their levels and the slice headers — for the history byte budget and the
// on-disk compression ratio.
func (s *Snapshot) MemBytes() int64 {
	return int64(len(s.entries))*entryMemBytes + 48
}

// Culprit is one original culprit: the packet whose arrival raised the
// queue to Level.
type Culprit struct {
	Flow  flow.Key
	Level int
	Seq   uint64
}

// OriginalCulprits walks the kept levels from 0 to the top pointer,
// tracking the largest sequence number seen so far (over both halves);
// an increase entry survives only if its sequence number exceeds every
// sequence number at lower levels. The surviving entries are exactly the
// packets that built the queue to its current level — stale records from
// earlier, higher peaks are discarded (paper §5 and §6.3).
func (s *Snapshot) OriginalCulprits() []Culprit {
	var out []Culprit
	var maxSeq uint64
	for n, level := range s.levels {
		if int(level) > s.top {
			break
		}
		e := &s.entries[n]
		if e.Up.Written() && e.Up.Seq > maxSeq {
			out = append(out, Culprit{Flow: e.Up.Flow.Key(), Level: int(level), Seq: e.Up.Seq})
			maxSeq = e.Up.Seq
		}
		maxSeq = max(maxSeq, e.Down)
	}
	return out
}

// CulpritsAcross is OriginalCulprits over the merge of several register
// sets' snapshots, without building that merge: it merges the snapshots'
// level lists, at every level takes, per half, the record with the largest
// sequence number across snaps and feeds it to the same staircase.
// snaps[0] must be the most recent snapshot; the walk stops at its top
// pointer.
//
// For the snapshots the control plane passes — the newest one of each
// register set at or before a freeze, newest first — the result equals
// Merge-ing the whole checkpoint chain up to that freeze and calling
// OriginalCulprits on it: a set is never cleared and Observe only ever
// overwrites a half with a larger sequence number, so an older snapshot of a
// set adds nothing to its newest one, and the sequence number that Merge
// picks its top by belongs to the last level change, which every later
// snapshot's top still points at. The cost follows the kept entries, not the
// levels, and the only allocation is the result (for at most four snaps).
func CulpritsAcross(snaps []*Snapshot) []Culprit {
	var out []Culprit
	walkAcross(snaps, func(f flow.Packed, level int, seq uint64) {
		out = append(out, Culprit{Flow: f.Key(), Level: level, Seq: seq})
	})
	return out
}

// CountsAcross is FlowCounts(CulpritsAcross(snaps)) from the same walk,
// without the list: each culprit's packed flow is interned as the walk names
// it (a staircase names one flow many times over, in runs; a key is unpacked
// once, the first time its flow is seen) and counted in a dense
// per-id slice, and the result holds one entry per distinct flow. The
// interner and the slice come from a pool, so a warm call allocates only the
// result. Both forms sum 1.0 per culprit, so the counts are bit-identical.
func CountsAcross(snaps []*Snapshot) flow.Counts {
	sc := countPool.Get().(*countScratch)
	walkAcross(snaps, func(f flow.Packed, _ int, _ uint64) {
		id := sc.in.InternPacked(f)
		if int(id) == len(sc.n) {
			sc.n = append(sc.n, 0)
		}
		sc.n[id]++
	})
	keys := sc.in.Keys()
	out := make(flow.Counts, len(keys))
	for id, k := range keys {
		out[k] = float64(sc.n[id])
	}
	sc.in.Reset()
	sc.n = sc.n[:0]
	countPool.Put(sc)
	return out
}

// countScratch is CountsAcross's pooled state: the flows a walk named, and
// n[id], the culprits of each.
type countScratch struct {
	in flow.Interner
	n  []int
}

var countPool = sync.Pool{New: func() any { return new(countScratch) }}

// walkAcross is the staircase CulpritsAcross and CountsAcross share: it calls
// visit with every culprit over snaps, in ascending level order.
func walkAcross(snaps []*Snapshot, visit func(f flow.Packed, level int, seq uint64)) {
	if len(snaps) == 0 {
		return
	}
	newest := snaps[0]
	for _, s := range snaps[1:] {
		if s.cfg != newest.cfg {
			panic("qmonitor: walking snapshots with different configs")
		}
	}
	// next[i] is the first of snaps[i]'s entries not yet walked; up to four
	// fit the array on the stack.
	var cursors [4]int
	next := cursors[:0]
	for range snaps {
		next = append(next, 0)
	}
	var maxSeq uint64
	for {
		// The lowest level any snapshot lists next; top+1 when none is left
		// at or below the top (a level fits 32 bits, see Validate).
		level := uint32(newest.top) + 1
		for i, s := range snaps {
			if n := next[i]; n < len(s.levels) && s.levels[n] < level {
				level = s.levels[n]
			}
		}
		if int(level) > newest.top {
			return
		}
		// The newest rise record and the newest fall's sequence number at
		// this level; a written record's sequence number is at least 1.
		var up *Half
		var upSeq, downSeq uint64
		for i, s := range snaps {
			n := next[i]
			if n >= len(s.levels) || s.levels[n] != level {
				continue
			}
			next[i]++
			e := &s.entries[n]
			if e.Up.Written() && e.Up.Seq > upSeq {
				up, upSeq = &e.Up, e.Up.Seq
			}
			downSeq = max(downSeq, e.Down)
		}
		if upSeq > maxSeq {
			visit(up.Flow, int(level), upSeq)
			maxSeq = upSeq
		}
		if downSeq > maxSeq {
			maxSeq = downSeq
		}
	}
}

// OriginalCulpritsNoFilter is the ablation variant that returns every written
// increase entry at or below the top pointer, without the sequence-number
// staircase. Stale peaks then wrongly implicate long-gone packets. Only a
// whole read (Monitor.Snapshot) still holds them.
func (s *Snapshot) OriginalCulpritsNoFilter() []Culprit {
	var out []Culprit
	for n, level := range s.levels {
		if int(level) > s.top {
			break
		}
		if e := &s.entries[n]; e.Up.Written() {
			out = append(out, Culprit{Flow: e.Up.Flow.Key(), Level: int(level), Seq: e.Up.Seq})
		}
	}
	return out
}

// FlowCounts aggregates culprits per flow, the paper's reporting format.
// Queries count with CountsAcross; FlowCounts serves the ablations and the
// tests that hold CountsAcross to the list.
func FlowCounts(culprits []Culprit) flow.Counts {
	c := make(flow.Counts, len(culprits))
	for _, cu := range culprits {
		c.Add(cu.Flow, 1)
	}
	return c
}

// Merge combines two snapshots of the same configuration by keeping, per
// level and half, the record with the larger sequence number, and the later
// top pointer (by the monitor's global sequence ordering), so original
// culprits recorded before a register-set flip are not lost. It builds a new
// snapshot listing every level either lists; queries use CulpritsAcross, and
// Merge is the reference that walk is tested against.
func Merge(a, b *Snapshot) *Snapshot {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.cfg != b.cfg {
		panic("qmonitor: merging snapshots with different configs")
	}
	n := len(a.levels) + len(b.levels)
	out := &Snapshot{cfg: a.cfg, levels: make([]uint32, 0, n), entries: make([]Entry, 0, n)}
	i, j := 0, 0
	for i < len(a.levels) || j < len(b.levels) {
		switch {
		case j == len(b.levels) || (i < len(a.levels) && a.levels[i] < b.levels[j]):
			out.levels, out.entries = append(out.levels, a.levels[i]), append(out.entries, a.entries[i])
			i++
		case i == len(a.levels) || b.levels[j] < a.levels[i]:
			out.levels, out.entries = append(out.levels, b.levels[j]), append(out.entries, b.entries[j])
			j++
		default:
			ea, eb := &a.entries[i], &b.entries[j]
			out.levels = append(out.levels, a.levels[i])
			out.entries = append(out.entries, Entry{Up: newerHalf(ea.Up, eb.Up), Down: max(ea.Down, eb.Down)})
			i++
			j++
		}
	}
	// The snapshot with the larger maximum sequence number is the more
	// recent one; its top pointer reflects the current queue level.
	if maxSeq(b) >= maxSeq(a) {
		out.top = b.top
	} else {
		out.top = a.top
	}
	return out
}

func newerHalf(a, b Half) Half {
	switch {
	case !a.Written():
		return b
	case !b.Written():
		return a
	case b.Seq > a.Seq:
		return b
	default:
		return a
	}
}

func maxSeq(s *Snapshot) uint64 {
	var m uint64
	for _, e := range s.entries {
		if e.Up.Written() && e.Up.Seq > m {
			m = e.Up.Seq
		}
		m = max(m, e.Down)
	}
	return m
}
