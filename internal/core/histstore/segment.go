package histstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout. A history directory holds numbered segment files
// (00000001.seg, 00000002.seg, ...). Each segment is:
//
//	header   8 bytes: "PQHS", format version, 3 reserved zero bytes
//	records  repeated: [uvarint payloadLen][payload][crc32c(payload) LE]
//	footer   (sealed only) record index: uvarint count, then per record
//	         uvarint port, uvarint offsetDelta, uvarint payloadLen,
//	         uvarint freezeTime, uvarint freezeTime-prevFreeze, flags byte
//	trailer  (sealed only) fixed 40 bytes:
//	         minPrev u64 | maxFreeze u64 | count u32 | footerLen u32 |
//	         footerCRC u32 | recordEnd u64(lower 4)+magic? — see below
//
// The trailer lets Open learn a sealed segment's time bounds with one
// 40-byte read; the footer (the per-record index) is only parsed the first
// time a query touches the segment — the "lazy cold-segment index".
//
// The active (last) segment has no footer. On startup it is scanned record
// by record; the first record whose length or checksum fails marks a torn
// tail from a crash mid-write, and the file is truncated back to the last
// intact record. An intact record of a version this build does not read
// stops Open instead, and the file is left alone.

const (
	segVersion    = 1
	segHeaderSize = 8

	// trailer: minPrev(8) maxFreeze(8) count(4) footerLen(4) footerCRC(4)
	// reserved(4) magic(8)
	segTrailerSize = 40
)

var (
	segHeader       = [segHeaderSize]byte{'P', 'Q', 'H', 'S', segVersion, 0, 0, 0}
	segTrailerMagic = [8]byte{'P', 'Q', 'H', 'T', 'R', 'L', 'R', segVersion}

	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// indexEntry locates one encoded checkpoint inside a segment.
type indexEntry struct {
	port       int
	freezeTime uint64
	prevFreeze uint64
	offset     int64 // file offset of the record's length varint
	payloadLen uint32
	flags      byte
}

// segment is the in-memory handle for one segment file. For sealed
// segments, index and ports are nil until loadIndex is called.
type segment struct {
	seq       uint64
	path      string
	sealed    bool
	fileSize  int64 // total file size on disk
	recordEnd int64 // end of the record area (== start of footer when sealed)
	count     int
	minPrev   uint64 // min PrevFreeze over records; ^0 when empty
	maxFreeze uint64 // max FreezeTime over records; 0 when empty
	index     []indexEntry
	// ports is the per-port view of index: for each port, the positions
	// of its records in index, in log order. One port's coverages ascend
	// and are disjoint — an append that would break this is refused — so
	// each view is in freeze order, with FreezeTime and PrevFreeze both
	// nondecreasing, and Covering binary-searches it.
	ports map[int][]uint32
	// unordered is set when some port's view is not in that order: a
	// record's coverage is inverted, or starts before its port's previous
	// record ends. Builds that did not refuse such appends wrote them (a
	// reopened switch logged (0, now] after its ports' older records), and
	// the records are kept; Covering and LastFreeze scan this segment's
	// views instead of searching them.
	unordered bool
}

// add indexes one record at the end of the segment and its port's view,
// marking the segment unordered when the record breaks its port's freeze
// order.
func (s *segment) add(e indexEntry) {
	view := s.ports[e.port]
	if e.prevFreeze > e.freezeTime || len(view) > 0 && s.index[view[len(view)-1]].freezeTime > e.prevFreeze {
		s.unordered = true
	}
	if s.ports == nil {
		s.ports = make(map[int][]uint32)
	}
	s.ports[e.port] = append(view, uint32(len(s.index)))
	s.index = append(s.index, e)
	s.count++
	if e.prevFreeze < s.minPrev {
		s.minPrev = e.prevFreeze
	}
	if e.freezeTime > s.maxFreeze {
		s.maxFreeze = e.freezeTime
	}
}

// lastFreeze returns the largest FreezeTime of port's records in the
// segment, whose index must be loaded: the last entry of its view, or the
// largest one in an unordered segment.
func (s *segment) lastFreeze(port int) (freeze uint64, ok bool) {
	view := s.ports[port]
	if len(view) == 0 {
		return 0, false
	}
	if !s.unordered {
		return s.index[view[len(view)-1]].freezeTime, true
	}
	for _, i := range view {
		freeze = max(freeze, s.index[i].freezeTime)
	}
	return freeze, true
}

// firstEndingAfter returns the position in view of the first record whose
// FreezeTime is past t, or len(view) when there is none.
func (s *segment) firstEndingAfter(view []uint32, t uint64) int {
	lo, hi := 0, len(view)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.index[view[m]].freezeTime > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
}

func parseSegSeq(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// appendFrame writes one framed record (length, payload, checksum) in one
// Write, built in buf's storage, and returns the frame. The caller holds
// the store lock, tracks offsets and passes the frame's storage back in.
func appendFrame(f *os.File, buf, payload []byte) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], uint64(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	_, err := f.Write(b)
	return b, err
}

// readFrame reads the framed record at off whose payload is plen bytes long,
// as its index entry says: the length varint, the payload and the checksum
// in one ReadAt (safe concurrently with appends beyond limit), into *buf's
// storage, grown when too small. It returns the verified payload, which
// aliases *buf. A frame whose length varint is not plen's, in its one
// shortest form as the writer writes it, is refused.
func readFrame(f io.ReaderAt, off, limit int64, plen uint64, buf *[]byte) ([]byte, error) {
	// A length past the segment is refused before it is narrowed: one of
	// 2^63 or more would turn negative.
	if off < 0 || off >= limit || plen > uint64(limit-off) {
		return nil, fmt.Errorf("histstore: record at offset %d overruns segment end %d", off, limit)
	}
	hn := int64(uvarintLen(plen))
	n := hn + int64(plen) + 4
	if off+n > limit {
		return nil, fmt.Errorf("histstore: record at offset %d overruns segment end %d", off, limit)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := f.ReadAt(b, off); err != nil {
		return nil, err
	}
	if v, m := binary.Uvarint(b); m != int(hn) || v != plen {
		return nil, fmt.Errorf("histstore: record at offset %d is not framed as %d bytes", off, plen)
	}
	payload := b[hn : hn+int64(plen)]
	want := binary.LittleEndian.Uint32(b[hn+int64(plen):])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("histstore: record checksum mismatch at offset %d (got %08x want %08x)", off, got, want)
	}
	return payload, nil
}

// scanFrame reads the framed record at off when no index entry gives its
// length, as the recovery scan does: the length varint first, then the frame
// through readFrame.
func scanFrame(f io.ReaderAt, off, limit int64, buf *[]byte) ([]byte, error) {
	var hdr [binary.MaxVarintLen64]byte
	hn := min(int64(len(hdr)), limit-off)
	if hn <= 0 {
		return nil, fmt.Errorf("histstore: record offset %d beyond segment end %d", off, limit)
	}
	if _, err := f.ReadAt(hdr[:hn], off); err != nil && err != io.EOF {
		return nil, err
	}
	plen, n := binary.Uvarint(hdr[:hn])
	if n <= 0 {
		return nil, fmt.Errorf("histstore: bad record length at offset %d", off)
	}
	return readFrame(f, off, limit, plen, buf)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// encodeFooter serializes the record index of a segment being sealed.
func encodeFooter(index []indexEntry) []byte {
	b := binary.AppendUvarint(nil, uint64(len(index)))
	var prevOff int64
	for _, e := range index {
		b = binary.AppendUvarint(b, uint64(e.port))
		b = binary.AppendUvarint(b, uint64(e.offset-prevOff))
		prevOff = e.offset
		b = binary.AppendUvarint(b, uint64(e.payloadLen))
		b = binary.AppendUvarint(b, e.freezeTime)
		b = binary.AppendUvarint(b, e.freezeTime-e.prevFreeze)
		b = append(b, e.flags)
	}
	return b
}

func decodeFooter(b []byte) ([]indexEntry, error) {
	r := &reader{b: b}
	count := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if count > uint64(len(b)) {
		return nil, fmt.Errorf("histstore: footer claims %d records in %d bytes", count, len(b))
	}
	index := make([]indexEntry, count)
	var off int64
	for i := range index {
		e := &index[i]
		e.port = int(r.uvarint())
		off += int64(r.uvarint())
		e.offset = off
		e.payloadLen = uint32(r.uvarint())
		e.freezeTime = r.uvarint()
		e.prevFreeze = e.freezeTime - r.uvarint()
		e.flags = r.byte()
	}
	if r.err != nil {
		return nil, r.err
	}
	return index, nil
}

// seal writes the footer and trailer for the active segment and marks it
// sealed. The file is fsynced: a sealed segment is durable in full.
func (s *segment) seal(f *os.File) error {
	footer := encodeFooter(s.index)
	if _, err := f.Write(footer); err != nil {
		return err
	}
	var tr [segTrailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], s.minPrev)
	binary.LittleEndian.PutUint64(tr[8:], s.maxFreeze)
	binary.LittleEndian.PutUint32(tr[16:], uint32(s.count))
	binary.LittleEndian.PutUint32(tr[20:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tr[24:], crc32.Checksum(footer, crcTable))
	copy(tr[32:], segTrailerMagic[:])
	if _, err := f.Write(tr[:]); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	s.sealed = true
	s.fileSize = s.recordEnd + int64(len(footer)) + segTrailerSize
	return nil
}

// openSealed reads a sealed segment's trailer and returns its metadata
// without loading the per-record index. ok is false when the file has no
// valid trailer (it is the active segment, or it was torn mid-seal) — the
// caller then recovers it with recoverScan.
func openSealed(path string, seq uint64) (seg *segment, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size < segHeaderSize+segTrailerSize {
		return nil, false, nil
	}
	var tr [segTrailerSize]byte
	if _, err := f.ReadAt(tr[:], size-segTrailerSize); err != nil {
		return nil, false, err
	}
	if [8]byte(tr[32:40]) != segTrailerMagic {
		return nil, false, nil
	}
	footerLen := int64(binary.LittleEndian.Uint32(tr[20:]))
	recordEnd := size - segTrailerSize - footerLen
	if recordEnd < segHeaderSize {
		return nil, false, nil
	}
	// The footer CRC is validated lazily, when the index is first needed.
	return &segment{
		seq:       seq,
		path:      path,
		sealed:    true,
		fileSize:  size,
		recordEnd: recordEnd,
		count:     int(binary.LittleEndian.Uint32(tr[16:])),
		minPrev:   binary.LittleEndian.Uint64(tr[0:]),
		maxFreeze: binary.LittleEndian.Uint64(tr[8:]),
	}, true, nil
}

// loadIndex reads and verifies a sealed segment's footer, populating
// s.index. Called lazily under the store lock on first query touch.
func (s *segment) loadIndex() error {
	footerLen := s.fileSize - segTrailerSize - s.recordEnd
	if footerLen < 0 {
		// An unsealed segment: its index lives in memory, there is no footer.
		return fmt.Errorf("histstore: %s has no footer to load an index from", s.path)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, s.recordEnd); err != nil {
		return err
	}
	var tr [segTrailerSize]byte
	if _, err := f.ReadAt(tr[:], s.fileSize-segTrailerSize); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(tr[24:])
	if got := crc32.Checksum(footer, crcTable); got != want {
		return fmt.Errorf("histstore: %s footer checksum mismatch (got %08x want %08x)", s.path, got, want)
	}
	index, err := decodeFooter(footer)
	if err != nil {
		return err
	}
	if len(index) != s.count {
		return fmt.Errorf("histstore: %s footer has %d records, trailer says %d", s.path, len(index), s.count)
	}
	v := segment{index: make([]indexEntry, 0, len(index))}
	for _, e := range index {
		v.add(e)
	}
	s.index, s.ports, s.unordered = v.index, v.ports, v.unordered
	return nil
}

// recoverScan walks an unsealed (or torn) segment record by record,
// rebuilding the index and detecting a torn tail: the first record with a
// bad length or checksum ends the intact prefix. It returns the segment
// with the in-memory index populated and the number of bytes past the
// intact prefix (0 when the file is clean), or an error — and no truncation
// point — at an intact record of a version this build does not read.
func recoverScan(path string, seq uint64) (*segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	seg := &segment{seq: seq, path: path, minPrev: ^uint64(0)}
	if size < segHeaderSize {
		// Torn before the header finished; treat the whole file as tail.
		seg.recordEnd = segHeaderSize
		seg.fileSize = segHeaderSize
		return seg, size, nil
	}
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, err
	}
	if hdr != segHeader {
		// Garbage where the header should be: nothing is salvageable. The
		// caller recreates the file as an empty segment.
		seg.recordEnd = segHeaderSize
		seg.fileSize = segHeaderSize
		return seg, size, nil
	}
	off := int64(segHeaderSize)
	var buf []byte
	for off < size {
		payload, err := scanFrame(f, off, size, &buf)
		if err != nil {
			// Torn tail: keep the intact prefix [0, off).
			break
		}
		rec, err := DecodeRecord(payload)
		var verr *VersionError
		if errors.As(err, &verr) {
			// Intact, but written by a build that knows more versions than
			// this one: truncating would destroy it, reading past it is
			// impossible. Leave the segment to a build that reads it.
			return nil, 0, fmt.Errorf("histstore: %s: record at offset %d: %w", path, off, err)
		}
		if err != nil {
			// The frame checksum passed but the payload is not a valid
			// record — corruption, not a torn append. Stop here too.
			break
		}
		seg.add(indexEntry{
			port:       rec.Port,
			freezeTime: rec.FreezeTime,
			prevFreeze: rec.PrevFreeze,
			offset:     off,
			payloadLen: uint32(len(payload)),
			flags:      recFlags(rec),
		})
		off += int64(uvarintLen(uint64(len(payload)))) + int64(len(payload)) + 4
	}
	seg.recordEnd = off
	seg.fileSize = off
	return seg, size - off, nil
}

func recFlags(rec *Record) byte {
	var fl byte
	if rec.Special {
		fl |= recFlagSpecial
	}
	return fl
}

// overlaps reports whether any record in the segment can cover part of the
// query interval [start, end): coverage is (PrevFreeze, FreezeTime], so a
// record matters iff freezeTime > start && prevFreeze < end, and the
// segment-level bounds give the conservative test.
func (s *segment) overlaps(start, end uint64) bool {
	return s.count > 0 && s.maxFreeze > start && s.minPrev < end
}
