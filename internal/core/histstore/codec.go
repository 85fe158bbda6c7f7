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
// monitors). A record holds what a query can read of the checkpoint and no
// more, and three structural facts make it small:
//
//   - a kept cell's cycle ID is not written: every kept cell survives
//     Algorithm 3, so its TTS lies in its window's retained span, (anchor -
//     2^k, anchor], and within that span its ring position alone determines
//     its TTS and with it its cycle. The record writes window 0's anchor
//     (the deeper ones follow by Algorithm 3's chain) and per window the
//     kept cells' TTSes as runs of adjacent ones;
//   - consecutive checkpoints — and the cells within one — share most of
//     their flows, so flow keys are interned into a per-record dictionary
//     and cells refer to them by small varint index; the dictionary is the
//     index's flow table followed by the flows only the monitors name, so
//     a decoded index adopts its prefix as is;
//   - no staircase walk reports the packet that lowered the queue, so a
//     monitor's fall records its sequence number alone, and sequence numbers
//     are deltas in level order;
//   - a queue that builds one granule per packet leaves a staircase of
//     adjacent rises whose sequence numbers go up by one from each level to
//     the next, so such a run is written as its length, its first sequence
//     number and its flows.
//
// The result is 3x (a busy K=6 fixture whose read keeps most of its
// registers) to 22x (a UW checkpoint at a 1 ms poll) smaller than the
// register entries the read took, at the widths Fig. 13 prices, while
// round-tripping exactly: a decoded record is the index and monitors it was
// encoded from.
//
// Layout, version 3 (all integers uvarints unless noted; z = zigzag varint):
//
//	version byte (3), flags byte (bit 0 special, bit 1 empty: no cell kept)
//	port, freezeTime, freezeTime - prevFreeze
//	m0, k, alpha, T, minPktTxDelayNs (8 bytes, float64 LE)
//	anchor: window 0's anchor TTS (absent when empty)
//	nIndexFlows, nMonitorFlows, then that many 13-byte flow keys
//	per live window: n, then if n > 0: anchor_i - first TTS, then runs of
//	    adjacent TTSes, each but the first preceded by the gap before it:
//	    run length, one flow id per cell
//	nQueues, per queue: maxDepthCells, granuleCells, top, nLevels, then the
//	    levels in order, each group led by levelGap<<2 | halves:
//	    halves 1 (rise): flow id, z seq delta
//	    halves 2 (fall): z seq delta
//	    halves 3: both, rise first
//	    halves 0 (a run of r >= 2 adjacent rises with no fall, each one
//	        sequence number above the level below it): r - 2, z delta of
//	        the first one's seq, then r flow ids
//	    every seq delta against the last seq the levels below hold
//
// Version 2 is version 3 without runs (a header's halves are never 0); the
// encoder writes a level v2's way unless it starts a run of two or more.
// Version 1 records, which list cells with their ring positions and cycle
// IDs and falls with a flow id, decode too (codec_v1.go). Nothing writes
// either; they are read paths for the logs older builds left.

// codecVersion is the record payload format version this build writes.
const codecVersion = 3

// Record is one checkpoint as the store sees it: the port it was frozen on,
// its coverage interval (PrevFreeze, FreezeTime], and the frozen reads. It is
// the neutral form exchanged with the control plane, which owns the richer
// Checkpoint type.
type Record struct {
	Port       int
	FreezeTime uint64
	PrevFreeze uint64
	Special    bool

	TW *timewindow.Filtered
	QM []*qmonitor.Snapshot
}

// MemBytes estimates the in-memory footprint of the record's reads — the
// baseline the encoded size is compared against.
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

const (
	recFlagSpecial = 1 << 0
	recFlagEmpty   = 1 << 1 // versions 2 and 3: the read kept no cell, so no anchor follows
)

// VersionError is a record of a version this build does not read: written by
// a newer build, or not a record at all. A log or a stream holding one is not
// corrupt, and must not be repaired as if it were.
type VersionError struct{ Version byte }

func (e *VersionError) Error() string {
	return fmt.Sprintf("histstore: record version %d, this build reads versions 1 to %d", e.Version, codecVersion)
}

// CheckVersion returns nil if payload is a record of a version this build
// reads, a *VersionError if it is of another one, and an error if it is
// empty. It reads the version byte and nothing else.
func CheckVersion(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("histstore: empty record")
	}
	if v := payload[0]; v < 1 || v > codecVersion {
		return &VersionError{Version: v}
	}
	return nil
}

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

// idsPool recycles the encoder's id stream: the dictionary id of every
// monitor rise, in emission order.
var idsPool = sync.Pool{New: func() any { return new([]uint32) }}

// EncodeRecord appends the compact encoding of rec to dst and returns the
// extended slice. The encoding is deterministic: the same record always
// produces the same bytes.
func EncodeRecord(dst []byte, rec *Record) ([]byte, error) {
	if rec.TW == nil {
		return dst, fmt.Errorf("histstore: record without time-window read")
	}
	cfg := rec.TW.Config()
	if n := cfg.EntriesPerSnapshot(); n > maxRegisterEntries {
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
	anchor, live := rec.TW.Anchor(0)
	dst = append(dst, codecVersion)
	var flags byte
	if rec.Special {
		flags |= recFlagSpecial
	}
	if !live {
		flags |= recFlagEmpty
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Port))
	dst = appendUvarint(dst, rec.FreezeTime)
	dst = appendUvarint(dst, rec.FreezeTime-rec.PrevFreeze)
	dst = appendUvarint(dst, uint64(cfg.M0))
	dst = appendUvarint(dst, uint64(cfg.K))
	dst = appendUvarint(dst, uint64(cfg.Alpha))
	dst = appendUvarint(dst, uint64(cfg.T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))
	if live {
		dst = appendUvarint(dst, anchor)
	}

	// The dictionary: the index's flow table, then the rise flows no kept
	// cell holds. Each rise's id is remembered for the monitor streams.
	flows := rec.TW.Flows()
	dict := flow.AcquireInterner()
	for _, k := range flows {
		dict.Intern(k)
	}
	nIndex := dict.Len()
	if nIndex != len(flows) {
		// A freeze interns each flow once; only a forged record's table
		// lists one twice, and its cells' ids would not survive the
		// dictionary.
		dict.Release()
		return dst, fmt.Errorf("histstore: the index's flow table lists %d flows, %d of them distinct", len(flows), nIndex)
	}
	idsp := idsPool.Get().(*[]uint32)
	ids := (*idsp)[:0]
	for _, qm := range rec.QM {
		_, entries := qm.Levels()
		for i := range entries {
			if e := &entries[i]; e.Up.Written() {
				ids = append(ids, uint32(dict.InternPacked(e.Up.Flow)))
			}
		}
	}
	dst = appendUvarint(dst, uint64(nIndex))
	dst = appendUvarint(dst, uint64(dict.Len()-nIndex))
	for _, k := range dict.Keys() {
		dst = k.AppendBinary(dst)
	}

	for i := 0; i < cfg.T; i++ {
		a, ok := rec.TW.Anchor(i)
		if !ok {
			break
		}
		dst = encodeWindow(dst, rec.TW.Window(i), a-cfg.Base(a))
	}
	dst = appendUvarint(dst, uint64(len(rec.QM)))
	next := ids
	for _, qm := range rec.QM {
		dst, next = encodeMonitor(dst, qm, next)
	}
	*idsp = ids[:0]
	idsPool.Put(idsp)
	dict.Release()
	return dst, nil
}

// encodeWindow emits one live window's index: the cell count, the first
// cell's TTS as its distance below the window's anchor, then the cells as
// runs of adjacent TTSes — the gap before each run but the first, the run's
// length, and a flow id per cell. A cell's TTS is the window's base plus its
// position, and top is the anchor's position, so distances and gaps are
// differences of positions.
func encodeWindow(dst []byte, refs []timewindow.CellRef, top uint64) []byte {
	dst = appendUvarint(dst, uint64(len(refs)))
	if len(refs) == 0 {
		return dst
	}
	next := uint64(refs[0].Pos) // the position after the previous run
	dst = appendUvarint(dst, top-next)
	for n := 0; n < len(refs); {
		pos := uint64(refs[n].Pos)
		run := 1
		for n+run < len(refs) && uint64(refs[n+run].Pos) == pos+uint64(run) {
			run++
		}
		if n > 0 {
			dst = appendUvarint(dst, pos-next)
		}
		dst = appendUvarint(dst, uint64(run))
		for _, ref := range refs[n : n+run] {
			if ref.Flow < 0x80 {
				dst = append(dst, byte(ref.Flow)) // the one-byte uvarint
			} else {
				dst = appendUvarint(dst, uint64(ref.Flow))
			}
		}
		next = pos + uint64(run)
		n += run
	}
	return dst
}

// encodeMonitor emits one queue monitor snapshot: config, top pointer, and
// the kept levels, each as the gap in levels before it and which of its
// halves follow, packed in one varint — a rise as its flow id and sequence
// number, a fall as its sequence number, the sequence numbers delta-encoded
// in level order (the staircase makes them near-monotonic) — except that a
// run of adjacent rises, each one sequence number above the level below,
// is written once: its length, its first sequence number and its flow ids.
// ids holds the rises' dictionary ids in order; what is left of it is
// returned.
func encodeMonitor(dst []byte, qm *qmonitor.Snapshot, ids []uint32) ([]byte, []uint32) {
	cfg := qm.Config()
	dst = appendUvarint(dst, uint64(cfg.MaxDepthCells))
	dst = appendUvarint(dst, uint64(cfg.GranuleCells))
	dst = appendUvarint(dst, uint64(qm.Top()))
	levels, entries := qm.Levels()
	dst = appendUvarint(dst, uint64(len(levels)))
	var predSeq uint64
	next := uint32(0) // the level after the previous entry
	for i := 0; i < len(levels); {
		e := &entries[i]
		gap := uint64(levels[i]-next) << 2 // the header's level gap, halves still 0
		if run := riseRun(levels[i:], entries[i:]); run >= 2 {
			dst = appendUvarint(dst, gap)
			dst = appendUvarint(dst, uint64(run-2))
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			for _, id := range ids[:run] {
				dst = appendUvarint(dst, uint64(id))
			}
			ids = ids[run:]
			i += run
			predSeq = entries[i-1].Up.Seq
			next = levels[i-1] + 1
			continue
		}
		var halves uint64
		if e.Up.Written() {
			halves |= 1
		}
		if e.Down != 0 {
			halves |= 2
		}
		dst = appendUvarint(dst, gap|halves)
		if e.Up.Written() {
			dst = appendUvarint(dst, uint64(ids[0]))
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			predSeq = e.Up.Seq
			ids = ids[1:]
		}
		if e.Down != 0 {
			dst = appendZigzag(dst, int64(e.Down)-int64(predSeq))
			predSeq = e.Down
		}
		next = levels[i] + 1
		i++
	}
	return dst, ids
}

// riseRun returns how many of the leading levels form a run: adjacent
// levels, each a rise with no fall, each rise one sequence number above the
// one below it. It is 0 if the first level is not such a rise.
func riseRun(levels []uint32, entries []qmonitor.Entry) int {
	if e := &entries[0]; !e.Up.Written() || e.Down != 0 {
		return 0
	}
	run := 1
	for run < len(levels) {
		e, below := &entries[run], &entries[run-1]
		if !e.Up.Written() || e.Down != 0 || levels[run] != levels[run-1]+1 ||
			below.Up.Seq == math.MaxUint64 || e.Up.Seq != below.Up.Seq+1 {
			break
		}
		run++
	}
	return run
}

// DecodeRecord decodes a payload produced by EncodeRecord, or by a build
// that wrote version 1 or 2. The returned record owns freshly allocated
// reads; the input buffer may be reused.
func DecodeRecord(b []byte) (*Record, error) {
	r := &reader{b: b}
	rec, flows, err := decodeWindows(r, true)
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
	var packed []flow.Packed
	if nQueues > 0 {
		rec.QM = make([]*qmonitor.Snapshot, nQueues)
		// A monitor half holds its flow packed, as the registers do: each
		// dictionary key is packed once, not once per rise naming it.
		packed = make([]flow.Packed, len(flows))
		for i := range flows {
			packed[i] = flows[i].Pack()
		}
	}
	for q := range rec.QM {
		if rec.QM[q], err = decodeMonitor(r, packed, b[0]); err != nil {
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
// cold cache stops here (rec.QM stays nil) and asks for no monitors: the
// flows only they name are skipped, not kept beside the index. DecodeRecord
// asks for them and goes on with flows, the dictionary the monitor halves
// refer to.
func decodeWindows(r *reader, monitors bool) (rec *Record, flows []flow.Key, err error) {
	version := r.byte()
	if r.err != nil {
		return nil, nil, r.err
	}
	if version < 1 || version > codecVersion {
		return nil, nil, &VersionError{Version: version}
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
	if version == 1 {
		rec.TW, flows, err = decodeWindowsV1(r, cfg)
		return rec, flows, err
	}

	if flags&^(recFlagSpecial|recFlagEmpty) != 0 {
		return nil, nil, fmt.Errorf("histstore: unknown record flags %#x", flags)
	}
	live := flags&recFlagEmpty == 0
	var anchor uint64
	if live {
		anchor = r.uvarint()
	}
	nIndex, nMonitor := r.uvarint(), r.uvarint()
	flows, err = decodeFlows(r, nIndex, nMonitor, monitors)
	if err != nil {
		return nil, nil, err
	}
	rec.TW, err = timewindow.NewFiltered(cfg, anchor, live, func(i int, anchor uint64) ([]timewindow.CellRef, error) {
		return decodeWindow(r, cfg, i, anchor, nIndex)
	}, func() []flow.Key { return flows[:nIndex:nIndex] })
	if err != nil {
		return nil, nil, err
	}
	return rec, flows, nil
}

// decodeFlows reads a flow dictionary of n1+n2 keys, refusing one the payload
// has no room for; unless all, the last n2 are skipped.
func decodeFlows(r *reader, n1, n2 uint64, all bool) ([]flow.Key, error) {
	if r.err != nil {
		return nil, r.err
	}
	if room := uint64(len(r.b)-r.off) / flow.KeyWireSize; n1 > room || n2 > room-n1 {
		return nil, fmt.Errorf("histstore: flow dictionary of %d+%d entries exceeds payload", n1, n2)
	}
	n := n1
	if all {
		n += n2
	}
	flows := make([]flow.Key, n)
	for i := range flows {
		k, _, err := flow.DecodeKey(r.bytes(flow.KeyWireSize))
		if err != nil {
			return nil, err
		}
		flows[i] = k
	}
	if !all {
		r.bytes(int(n2) * flow.KeyWireSize)
	}
	return flows, nil
}

// decodeWindow decodes live window i's index, anchored at anchor, into the
// refs a Filtered holds: every cell's TTS within the span the window
// retains, (anchor-2^k, anchor], ascending, as its position past the
// window's base, and its flow id below nFlows. It
// allocates for the cells the window declares, and a cell takes at least one
// payload byte, so never for more than the payload has left.
func decodeWindow(r *reader, cfg timewindow.Config, i int, anchor, nFlows uint64) ([]timewindow.CellRef, error) {
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(cfg.Cells()) || n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("histstore: window %d claims %d cells of %d with %d bytes left", i, n, cfg.Cells(), len(r.b)-r.off)
	}
	d := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if d > anchor || d >= uint64(cfg.Cells()) {
		return nil, fmt.Errorf("histstore: window %d starts %d below its anchor %d", i, d, anchor)
	}
	base := cfg.Base(anchor)
	refs := make([]timewindow.CellRef, 0, n)
	next := anchor - d // where the next run may start
	for uint64(len(refs)) < n {
		if len(refs) > 0 {
			skip := r.uvarint()
			if r.err != nil {
				return nil, r.err
			}
			if next > anchor || skip > anchor-next {
				return nil, fmt.Errorf("histstore: window %d run after TTS %d skips %d past its anchor %d", i, next, skip, anchor)
			}
			next += skip
		}
		run := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if run == 0 || run > anchor-next+1 || run > n-uint64(len(refs)) {
			return nil, fmt.Errorf("histstore: window %d run of %d at TTS %d overflows", i, run, next)
		}
		for tts := next; tts < next+run; tts++ {
			var id uint64
			if r.off < len(r.b) && r.b[r.off] < 0x80 {
				id = uint64(r.b[r.off]) // the one-byte uvarint
				r.off++
			} else if id = r.uvarint(); r.err != nil {
				return nil, r.err
			}
			if id >= nFlows {
				return nil, fmt.Errorf("histstore: cell flow id %d out of the index's %d flows", id, nFlows)
			}
			refs = append(refs, timewindow.CellRef{Pos: uint32(tts - base), Flow: int32(id)})
		}
		next += run
	}
	return refs, nil
}

// decodeMonitor decodes one queue monitor of a record of the given version
// into the sparse form a Snapshot holds: the kept levels, ascending, and the
// entries at them, a rise's flow from the packed dictionary flows. It
// allocates for the levels the monitor declares, and a level takes at least
// one payload byte (a run's level its flow id; two bytes in version 2, four
// in version 1), so never for more than the payload has left.
func decodeMonitor(r *reader, flows []flow.Packed, version byte) (*qmonitor.Snapshot, error) {
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
	minLevel := uint64(1) // version 3: a run's level is its flow id
	switch version {
	case 1:
		minLevel = 4
	case 2:
		minLevel = 2
	}
	if top >= uint64(n) || nOcc > uint64(n) || nOcc > uint64(len(r.b)-r.off)/minLevel {
		return nil, fmt.Errorf("histstore: monitor claims top %d and %d occupied of %d entries with %d bytes left", top, nOcc, n, len(r.b)-r.off)
	}
	levels := make([]uint32, nOcc)
	entries := make([]qmonitor.Entry, nOcc)
	i := 0
	var predSeq uint64
	for o := 0; o < len(entries); {
		var skip, halves uint64
		if version == 1 {
			skip, halves = r.uvarint(), uint64(r.byte())
		} else {
			v := r.uvarint()
			skip, halves = v>>2, v&3
		}
		if r.err != nil {
			return nil, r.err
		}
		if i >= n || skip > uint64(n-i-1) || halves > 3 || (halves == 0 && version < 3) {
			return nil, fmt.Errorf("histstore: monitor entry (skip %d, halves %#x) overflows at level %d", skip, halves, i)
		}
		i += int(skip)
		if halves == 0 {
			run, err := decodeRiseRun(r, flows, levels[o:], entries[o:], i, n, &predSeq)
			if err != nil {
				return nil, err
			}
			i += run
			o += run
			continue
		}
		e := &entries[o]
		if halves&1 != 0 {
			id := r.uvarint()
			seq := nextSeq(r, &predSeq)
			if r.err != nil {
				return nil, r.err
			}
			if id >= uint64(len(flows)) {
				return nil, fmt.Errorf("histstore: monitor flow id %d out of dictionary (%d flows)", id, len(flows))
			}
			e.Up = qmonitor.Half{Flow: flows[id], Seq: seq}
		}
		if halves&2 != 0 {
			if version == 1 {
				// The fall's flow id: checked, then dropped — no walk reads it.
				if id := r.uvarint(); r.err == nil && id >= uint64(len(flows)) {
					return nil, fmt.Errorf("histstore: monitor flow id %d out of dictionary (%d flows)", id, len(flows))
				}
			}
			e.Down = nextSeq(r, &predSeq)
			if r.err != nil {
				return nil, r.err
			}
		}
		levels[o] = uint32(i)
		i++
		o++
	}
	return qmonitor.NewSnapshot(cfg, levels, entries, int(top))
}

// decodeRiseRun decodes a version-3 run of rises, r past its header, into
// the leading levels and entries, the first at level i of n: its length
// less two, its first sequence number as a delta against *predSeq, then a
// flow id per level. It refuses a run past the levels left to fill or the
// register array, whose last sequence number overflows, or naming a flow
// outside the dictionary, and returns the run's length.
func decodeRiseRun(r *reader, flows []flow.Packed, levels []uint32, entries []qmonitor.Entry, i, n int, predSeq *uint64) (int, error) {
	extra := r.uvarint()
	seq := nextSeq(r, predSeq)
	if r.err != nil {
		return 0, r.err
	}
	if extra > uint64(len(entries)) || extra+2 > uint64(len(entries)) || extra+2 > uint64(n-i) {
		return 0, fmt.Errorf("histstore: monitor run of %d rises at level %d overflows (%d levels left to fill, %d in the array)", extra+2, i, len(entries), n)
	}
	run := int(extra + 2)
	if seq > math.MaxUint64-uint64(run-1) {
		return 0, fmt.Errorf("histstore: monitor run of %d rises from sequence number %d overflows", run, seq)
	}
	for j := range run {
		id := r.uvarint()
		if r.err != nil {
			return 0, r.err
		}
		if id >= uint64(len(flows)) {
			return 0, fmt.Errorf("histstore: monitor run flow id %d out of dictionary (%d flows)", id, len(flows))
		}
		levels[j] = uint32(i + j)
		entries[j].Up = qmonitor.Half{Flow: flows[id], Seq: seq + uint64(j)}
	}
	*predSeq = seq + uint64(run-1)
	return run, nil
}

// nextSeq reads a sequence number as a delta against *predSeq and makes it
// the new predecessor.
func nextSeq(r *reader, predSeq *uint64) uint64 {
	*predSeq = uint64(int64(*predSeq) + r.zigzag())
	return *predSeq
}
