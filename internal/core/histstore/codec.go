package histstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// This file implements the compact binary checkpoint codec: a lossless,
// self-describing encoding of one frozen register read (time windows + queue
// monitors). Two structural facts make the encoding small:
//
//   - cell timestamps are near-monotonic: within one window, the cycle IDs
//     of consecutive valid cells differ by 0 or ±1 (the ring buffer is
//     written in time order), so cycle IDs compress to zigzag varint deltas
//     against the previous cell, almost always one byte;
//   - consecutive checkpoints — and the cells within one — share most of
//     their flows, so flow keys are interned into a per-record dictionary
//     and cells refer to them by small varint index.
//
// Invalid cells are run-length skipped, valid runs are batched, and the
// queue-monitor staircase stores sequence numbers as deltas in level order.
// The result is typically 4-20x smaller than the resident register copy
// (see Record.MemBytes) while round-tripping bit-exactly: a decoded record
// filters, indexes, and accumulates identically to the original.

// codecVersion is the record payload format version.
const codecVersion = 1

// Record is one checkpoint as the store sees it: the port it was frozen on,
// its coverage interval (PrevFreeze, FreezeTime], and the frozen snapshots.
// It is the neutral form exchanged with the control plane, which owns the
// richer Checkpoint type.
type Record struct {
	Port       int
	FreezeTime uint64
	PrevFreeze uint64
	Special    bool

	TW *timewindow.Snapshot
	QM []*qmonitor.Snapshot
}

// MemBytes estimates the in-memory footprint of the record's snapshots —
// the baseline the encoded size is compared against.
func (r *Record) MemBytes() int64 {
	n := int64(64) // record header + slice
	if r.TW != nil {
		n += r.TW.MemBytes()
	}
	for _, qm := range r.QM {
		if qm != nil {
			n += qm.MemBytes()
		}
	}
	return n
}

const recFlagSpecial = 1 << 0

// maxRegisterEntries bounds the register geometry a record may declare: the
// time-window cells (T × 2^k) and each queue monitor's entries. The decoder
// allocates by what the payload has room for, whatever geometry it declares;
// the bound keeps the geometry a reader must accept sane, and the encoder
// refuses the same geometry so that whatever is written can be read back.
// The paper's configuration is 2^14 cells and ~2^14 entries per queue.
const maxRegisterEntries = 1 << 20

// appendUvarint / appendZigzag are the primitive writers.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendZigzag(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// reader is a cursor over an encoded payload with sticky error handling, so
// the decode path stays linear instead of error-checking every varint.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("histstore: truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) zigzag() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("histstore: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("histstore: truncated byte at offset %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("histstore: truncated %d-byte field at offset %d", n, r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// idsPool recycles the encoder's id stream: the dictionary id of every valid
// cell and monitor half, in emission order.
var idsPool = sync.Pool{New: func() any { return new([]uint32) }}

// EncodeRecord appends the compact encoding of rec to dst and returns the
// extended slice. The encoding is deterministic: the same record always
// produces the same bytes.
func EncodeRecord(dst []byte, rec *Record) ([]byte, error) {
	if rec.TW == nil {
		return dst, fmt.Errorf("histstore: record without time-window snapshot")
	}
	if n := rec.TW.Config().EntriesPerSnapshot(); n > maxRegisterEntries {
		return dst, fmt.Errorf("histstore: %d time-window cells exceed the codec's limit of %d", n, maxRegisterEntries)
	}
	for _, qm := range rec.QM {
		if qm == nil {
			return dst, fmt.Errorf("histstore: record with nil queue-monitor snapshot")
		}
		if n := qm.Config().Entries(); n > maxRegisterEntries {
			return dst, fmt.Errorf("histstore: %d queue-monitor entries exceed the codec's limit of %d", n, maxRegisterEntries)
		}
	}
	dst = append(dst, codecVersion)
	var flags byte
	if rec.Special {
		flags |= recFlagSpecial
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Port))
	dst = appendUvarint(dst, rec.FreezeTime)
	dst = appendUvarint(dst, rec.FreezeTime-rec.PrevFreeze)

	cfg := rec.TW.Config()
	dst = appendUvarint(dst, uint64(cfg.M0))
	dst = appendUvarint(dst, uint64(cfg.K))
	dst = appendUvarint(dst, uint64(cfg.Alpha))
	dst = appendUvarint(dst, uint64(cfg.T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))

	// The dictionary precedes the cell streams, so every flow is interned
	// first — one walk over windows then monitors, in the order the streams
	// are emitted — and each id is remembered: the emitters below read the
	// ids back instead of looking the flows up a second time.
	dict := flow.AcquireInterner()
	idsp := idsPool.Get().(*[]uint32)
	ids := (*idsp)[:0]
	for i := 0; i < cfg.T; i++ {
		_, cells := rec.TW.Window(i)
		for n := range cells {
			ids = append(ids, uint32(dict.Intern(cells[n].Flow)))
		}
	}
	for _, qm := range rec.QM {
		_, entries := qm.Levels()
		for i := range entries {
			e := &entries[i]
			if e.Up.Valid {
				ids = append(ids, uint32(dict.Intern(e.Up.Flow)))
			}
			if e.Down.Valid {
				ids = append(ids, uint32(dict.Intern(e.Down.Flow)))
			}
		}
	}
	dst = appendUvarint(dst, uint64(dict.Len()))
	for _, k := range dict.Keys() {
		dst = k.AppendBinary(dst)
	}

	next := ids
	for i := 0; i < cfg.T; i++ {
		pos, cells := rec.TW.Window(i)
		dst = encodeWindow(dst, pos, cells, next[:len(cells)])
		next = next[len(cells):]
	}
	dst = appendUvarint(dst, uint64(len(rec.QM)))
	for _, qm := range rec.QM {
		dst, next = encodeMonitor(dst, qm, next)
	}
	*idsp = ids[:0]
	idsPool.Put(idsp)
	dict.Release()
	return dst, nil
}

// encodeWindow emits one window's cells: the valid-cell count, the base
// cycle, then (skip, run) pairs — the gap in ring positions before a run of
// adjacent ones, and its length — where each run's cells carry a flow id and
// a zigzag cycle delta against the previous valid cell. pos and cells are the
// snapshot's list for the window, ids the cells' flow ids.
func encodeWindow(dst []byte, pos []uint32, cells []timewindow.Cell, ids []uint32) []byte {
	dst = appendUvarint(dst, uint64(len(cells)))
	if len(cells) == 0 {
		return dst
	}
	pred := cells[0].CycleID
	dst = appendUvarint(dst, pred)
	next := uint32(0) // the ring position after the previous run
	for n := 0; n < len(cells); {
		run := 1
		for n+run < len(cells) && pos[n+run] == pos[n]+uint32(run) {
			run++
		}
		dst = appendUvarint(dst, uint64(pos[n]-next))
		dst = appendUvarint(dst, uint64(run))
		for m := n; m < n+run; m++ {
			dst = appendUvarint(dst, uint64(ids[m]))
			dst = appendZigzag(dst, int64(cells[m].CycleID)-int64(pred))
			pred = cells[m].CycleID
		}
		next = pos[n] + uint32(run)
		n += run
	}
	return dst
}

// encodeMonitor emits one queue monitor snapshot: config, top pointer, and
// the occupied entries as (skip, halves) pairs — the gap in levels before an
// entry, and which of its halves follow — with sequence numbers
// delta-encoded in level order (the staircase makes them near-monotonic).
// The pairs come straight from the snapshot's level list. ids is consumed as
// in encodeWindow, one id per valid half.
func encodeMonitor(dst []byte, qm *qmonitor.Snapshot, ids []uint32) ([]byte, []uint32) {
	cfg := qm.Config()
	dst = appendUvarint(dst, uint64(cfg.MaxDepthCells))
	dst = appendUvarint(dst, uint64(cfg.GranuleCells))
	dst = appendUvarint(dst, uint64(qm.Top()))
	levels, entries := qm.Levels()
	dst = appendUvarint(dst, uint64(len(levels)))
	var predSeq uint64
	next := uint32(0) // the level after the previous entry
	for i, level := range levels {
		e := &entries[i]
		dst = appendUvarint(dst, uint64(level-next))
		next = level + 1
		var halves byte
		if e.Up.Valid {
			halves |= 1
		}
		if e.Down.Valid {
			halves |= 2
		}
		dst = append(dst, halves)
		if e.Up.Valid {
			dst = appendUvarint(dst, uint64(ids[0]))
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			predSeq = e.Up.Seq
			ids = ids[1:]
		}
		if e.Down.Valid {
			dst = appendUvarint(dst, uint64(ids[0]))
			dst = appendZigzag(dst, int64(e.Down.Seq)-int64(predSeq))
			predSeq = e.Down.Seq
			ids = ids[1:]
		}
	}
	return dst, ids
}

// DecodeRecord decodes a payload produced by EncodeRecord. The returned
// record owns freshly allocated snapshots; the input buffer may be reused.
func DecodeRecord(b []byte) (*Record, error) {
	r := &reader{b: b}
	rec, flows, err := decodeWindows(r)
	if err != nil {
		return nil, err
	}
	nQueues := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nQueues > uint64(len(b)) {
		return nil, fmt.Errorf("histstore: %d queue monitors exceeds payload", nQueues)
	}
	rec.QM = make([]*qmonitor.Snapshot, nQueues)
	for q := range rec.QM {
		if rec.QM[q], err = decodeMonitor(r, flows); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

// decodeWindows decodes the leading part of a payload — header, flow
// dictionary, time windows — and leaves r at the queue-monitor section,
// which is last. It is all an interval query reads of a checkpoint, so the
// cold cache stops here (rec.QM stays nil); DecodeRecord goes on with flows,
// the dictionary the monitor halves refer to.
func decodeWindows(r *reader) (rec *Record, flows []flow.Key, err error) {
	if v := r.byte(); r.err == nil && v != codecVersion {
		return nil, nil, fmt.Errorf("histstore: unknown record version %d", v)
	}
	flags := r.byte()
	rec = &Record{Special: flags&recFlagSpecial != 0}
	rec.Port = int(r.uvarint())
	rec.FreezeTime = r.uvarint()
	rec.PrevFreeze = rec.FreezeTime - r.uvarint()

	m0, k, alpha, t := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	var minDelay float64
	if raw := r.bytes(8); raw != nil {
		minDelay = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	// Range-check before narrowing: Validate's own sums would wrap on values
	// only a hostile payload carries.
	if m0 > 63 || k > 63 || alpha > 63 || t > 63 {
		return nil, nil, fmt.Errorf("histstore: window config (m0 %d, k %d, alpha %d, T %d) out of range", m0, k, alpha, t)
	}
	cfg := timewindow.Config{M0: uint(m0), K: uint(k), Alpha: uint(alpha), T: int(t), MinPktTxDelayNs: minDelay}
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("histstore: bad window config in record: %w", err)
	}
	if n := cfg.EntriesPerSnapshot(); n > maxRegisterEntries {
		return nil, nil, fmt.Errorf("histstore: %d time-window cells exceed the codec's limit of %d", n, maxRegisterEntries)
	}

	nFlows := r.uvarint()
	if r.err == nil && nFlows > uint64(len(r.b)/flow.KeyWireSize+1) {
		return nil, nil, fmt.Errorf("histstore: flow dictionary of %d entries exceeds payload", nFlows)
	}
	flows = make([]flow.Key, nFlows)
	for i := range flows {
		raw := r.bytes(flow.KeyWireSize)
		if r.err != nil {
			return nil, nil, r.err
		}
		k, _, err := flow.DecodeKey(raw)
		if err != nil {
			return nil, nil, err
		}
		flows[i] = k
	}

	pos := make([][]uint32, cfg.T)
	cells := make([][]timewindow.Cell, cfg.T)
	for i := range pos {
		if pos[i], cells[i], err = decodeWindow(r, cfg.Cells(), flows); err != nil {
			return nil, nil, err
		}
	}
	rec.TW, err = timewindow.NewSparseSnapshot(cfg, pos, cells)
	if err != nil {
		return nil, nil, err
	}
	return rec, flows, nil
}

// decodeWindow decodes one window of ring cells into the sparse form a
// Snapshot holds: the valid cells and their ring positions, ascending. It
// allocates for the valid cells the window declares, and a cell takes at
// least two payload bytes, so never for more than the payload has left.
func decodeWindow(r *reader, ring int, flows []flow.Key) ([]uint32, []timewindow.Cell, error) {
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

// decodeMonitor decodes one queue monitor into the sparse form a Snapshot
// holds: the occupied levels, ascending, and the entries at them. It
// allocates for the occupied entries the monitor declares, and an entry takes
// at least four payload bytes (skip, halves, one half's id and sequence
// delta), so never for more than the payload has left.
func decodeMonitor(r *reader, flows []flow.Key) (*qmonitor.Snapshot, error) {
	maxDepth, granule, top := r.uvarint(), r.uvarint(), r.uvarint()
	nOcc := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if maxDepth > math.MaxInt32 || granule > math.MaxInt32 || top > math.MaxInt32 {
		return nil, fmt.Errorf("histstore: monitor config (max depth %d, granule %d, top %d) out of range", maxDepth, granule, top)
	}
	cfg := qmonitor.Config{MaxDepthCells: int(maxDepth), GranuleCells: int(granule)}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("histstore: bad monitor config in record: %w", err)
	}
	n := cfg.Entries()
	if n > maxRegisterEntries {
		return nil, fmt.Errorf("histstore: %d queue-monitor entries exceed the codec's limit of %d", n, maxRegisterEntries)
	}
	if top >= uint64(n) || nOcc > uint64(n) || nOcc > uint64(len(r.b)-r.off)/4 {
		return nil, fmt.Errorf("histstore: monitor claims top %d and %d occupied of %d entries with %d bytes left", top, nOcc, n, len(r.b)-r.off)
	}
	levels := make([]uint32, nOcc)
	entries := make([]qmonitor.Entry, nOcc)
	i := 0
	var predSeq uint64
	for o := range entries {
		skip := r.uvarint()
		halves := r.byte()
		if r.err != nil {
			return nil, r.err
		}
		if i >= n || skip > uint64(n-i-1) || halves == 0 || halves > 3 {
			return nil, fmt.Errorf("histstore: monitor entry (skip %d, halves %#x) overflows at level %d", skip, halves, i)
		}
		i += int(skip)
		e := &entries[o]
		if halves&1 != 0 {
			h, err := decodeHalf(r, flows, &predSeq)
			if err != nil {
				return nil, err
			}
			e.Up = h
		}
		if halves&2 != 0 {
			h, err := decodeHalf(r, flows, &predSeq)
			if err != nil {
				return nil, err
			}
			e.Down = h
		}
		levels[o] = uint32(i)
		i++
	}
	return qmonitor.NewSnapshot(cfg, levels, entries, int(top))
}

func decodeHalf(r *reader, flows []flow.Key, predSeq *uint64) (qmonitor.Half, error) {
	id := r.uvarint()
	delta := r.zigzag()
	if r.err != nil {
		return qmonitor.Half{}, r.err
	}
	if id >= uint64(len(flows)) {
		return qmonitor.Half{}, fmt.Errorf("histstore: monitor flow id %d out of dictionary (%d flows)", id, len(flows))
	}
	seq := uint64(int64(*predSeq) + delta)
	*predSeq = seq
	return qmonitor.Half{Flow: flows[id], Seq: seq, Valid: true}, nil
}
