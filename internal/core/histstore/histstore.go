// Package histstore implements the cold tier of the checkpoint history: a
// durable, append-only segment log of compactly encoded checkpoints plus a
// byte-budgeted LRU of decoded ones.
//
// The control plane keeps its newest MaxCheckpoints checkpoints in RAM (the
// hot tier) and appends every retired checkpoint here off the hot path. A
// query that reaches past the hot tier asks the store for the cold
// checkpoints Covering its interval; the store locates them via the
// per-segment time-indexed footers (loaded lazily, on first touch), decodes
// on miss the part of them an interval query reads — coverage and time
// windows, not the queue monitors — straight into their Algorithm-3 cell
// index and keeps that index in the LRU, so repeated narrow queries over deep
// history stay sub-millisecond while resident memory stays bounded.
package histstore

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"printqueue/internal/telemetry"
)

// Options configures a Store.
type Options struct {
	// Dir is the history directory. It is created if absent.
	Dir string
	// SegmentBytes is the record-area size at which the active segment is
	// sealed and a new one started. Default 4 MiB.
	SegmentBytes int64
	// MaxBytes bounds total bytes on disk; oldest sealed segments are
	// removed, whole, while over budget. The active segment is never
	// pruned. 0 = unlimited.
	MaxBytes int64
	// MaxAgeNs bounds retention by trace time: a sealed segment whose
	// newest checkpoint is older than MaxAgeNs before the newest appended
	// freeze time is removed. 0 = unlimited.
	MaxAgeNs uint64
	// FsyncEvery fsyncs the active segment after every N appended records.
	// 0 fsyncs only when a segment is sealed or the store is closed.
	FsyncEvery int
	// CacheBytes is the decoded-checkpoint LRU budget. Default 64 MiB.
	CacheBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	return o
}

// Stats is a point-in-time summary of the store, surfaced by the ops
// endpoint and the simulator's end-of-run report.
type Stats struct {
	Segments         int   `json:"segments"`
	BytesOnDisk      int64 `json:"bytes_on_disk"`
	CacheBytes       int64 `json:"cache_bytes"`
	Appended         int64 `json:"appended"`
	AppendErrors     int64 `json:"append_errors"`
	EncodedBytes     int64 `json:"encoded_bytes"`
	RawBytes         int64 `json:"raw_bytes"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	PrunedSegments   int64 `json:"pruned_segments"`
	RecoveredRecords int   `json:"recovered_records"`
	TruncatedBytes   int64 `json:"truncated_bytes"`
}

// Store is the tiered-history cold store. All methods are safe for
// concurrent use.
type Store struct {
	opts Options

	mu        sync.Mutex
	closed    bool
	active    *os.File
	activeSeg *segment
	sealed    []*segment // ascending seq
	nextSeq   uint64
	sinceSync int

	maxFreezeSeen uint64 // newest freeze time ever appended (age pruning)

	cache *lruCache

	recoveredRecords int
	truncatedBytes   int64

	appended     *telemetry.Counter
	appendErrs   *telemetry.Counter
	decodeErrs   *telemetry.Counter
	encodedBytes *telemetry.Counter
	rawBytes     *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	prunedSegs   *telemetry.Counter
	indexLoads   *telemetry.Counter
	bytesOnDisk  *telemetry.Gauge
	segments     *telemetry.Gauge
	cacheBytes   *telemetry.Gauge
	historyBytes *telemetry.Gauge
	decodeNs     *telemetry.Histogram
}

// Open opens (or creates) the history directory, recovering from any torn
// tail left by a crash: the last segment is scanned record by record and
// truncated back to its intact prefix. A record of a version this build does
// not read is not a torn tail: Open fails, naming the segment and the
// version, and leaves the file as it is. Metrics are registered on reg
// (which must be non-nil; use telemetry.NewRegistry() when running
// standalone).
func Open(opts Options, reg *telemetry.Registry) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("histstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:         opts,
		appended:     reg.Counter("printqueue_hist_appended_total", "Checkpoints appended to the history log."),
		appendErrs:   reg.Counter("printqueue_hist_append_errors_total", "Checkpoint appends that failed (encode or I/O)."),
		decodeErrs:   reg.Counter("printqueue_hist_decode_errors_total", "Cold checkpoint records that failed to decode at query time."),
		encodedBytes: reg.Counter("printqueue_hist_encoded_bytes_total", "Total encoded payload bytes appended."),
		rawBytes:     reg.Counter("printqueue_hist_raw_bytes_total", "Total in-memory bytes of the checkpoints appended (compression baseline)."),
		cacheHits:    reg.Counter("printqueue_hist_cache_hits_total", "Cold-tier queries served from the decoded-checkpoint LRU."),
		cacheMisses:  reg.Counter("printqueue_hist_cache_misses_total", "Cold-tier queries that had to decode a checkpoint from disk."),
		prunedSegs:   reg.Counter("printqueue_hist_pruned_segments_total", "Sealed segments removed by size/age retention."),
		indexLoads:   reg.Counter("printqueue_hist_index_loads_total", "Sealed-segment footers loaded lazily on first query touch."),
		bytesOnDisk:  reg.Gauge("printqueue_hist_bytes_on_disk", "Bytes currently on disk across all history segments."),
		segments:     reg.Gauge("printqueue_hist_segments", "History segment files currently on disk."),
		cacheBytes:   reg.Gauge("printqueue_hist_cache_bytes", "Resident bytes of the decoded cold-checkpoint LRU."),
		historyBytes: reg.Gauge("printqueue_history_bytes", "Resident bytes of checkpoint history (hot tier + cold LRU)."),
		decodeNs:     reg.Histogram("printqueue_hist_decode_ns", "Nanoseconds a cold-cache miss takes: read one checkpoint from its segment and decode its Algorithm-3 index.", telemetry.LatencyBuckets),
	}
	s.cache = newLRUCache(opts.CacheBytes, func(delta int64) {
		s.cacheBytes.Add(delta)
		s.historyBytes.Add(delta)
	})
	if err := s.openDir(); err != nil {
		return nil, err
	}
	return s, nil
}

// openDir scans the directory, classifying each segment as sealed (valid
// trailer) or torn/active (recovered by scan). Every unsealed segment but
// the newest is sealed in place; the newest becomes the active segment.
func (s *Store) openDir() error {
	seqs, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	var unsealed []*segment
	for _, seq := range seqs {
		path := segPath(s.opts.Dir, seq)
		seg, ok, err := openSealed(path, seq)
		if err != nil {
			return err
		}
		if ok {
			s.sealed = append(s.sealed, seg)
			if seg.maxFreeze > s.maxFreezeSeen {
				s.maxFreezeSeen = seg.maxFreeze
			}
			continue
		}
		seg, torn, err := recoverScan(path, seq)
		if err != nil {
			return err
		}
		if torn > 0 {
			if seg.count == 0 {
				// No salvageable prefix — possibly a torn or garbage header
				// that a plain truncate would zero-extend into an invalid
				// file. Recreate it as an empty segment instead.
				if err := os.WriteFile(path, segHeader[:], 0o644); err != nil {
					return err
				}
			} else if err := os.Truncate(path, seg.fileSize); err != nil {
				return err
			}
			s.truncatedBytes += torn
		}
		s.recoveredRecords += seg.count
		if seg.maxFreeze > s.maxFreezeSeen {
			s.maxFreezeSeen = seg.maxFreeze
		}
		unsealed = append(unsealed, seg)
	}
	// Seal every recovered segment except the newest, which resumes as the
	// active segment.
	for i, seg := range unsealed {
		if i == len(unsealed)-1 && seg.seq > maxSeq(s.sealed) {
			f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.Seek(seg.recordEnd, 0); err != nil {
				f.Close()
				return err
			}
			s.active = f
			s.activeSeg = seg
			continue
		}
		f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Seek(seg.recordEnd, 0); err != nil {
			f.Close()
			return err
		}
		err = seg.seal(f)
		f.Close()
		if err != nil {
			return err
		}
		s.sealed = append(s.sealed, seg)
	}
	sort.Slice(s.sealed, func(i, j int) bool { return s.sealed[i].seq < s.sealed[j].seq })
	if s.activeSeg == nil {
		if err := s.newActiveLocked(); err != nil {
			return err
		}
	}
	s.nextSeq = s.activeSeg.seq + 1
	s.updateDiskGaugesLocked()
	return nil
}

func maxSeq(segs []*segment) uint64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].seq
}

func (s *Store) newActiveLocked() error {
	seq := s.nextSeq
	if seq == 0 {
		seq = maxSeq(s.sealed) + 1
	}
	path := segPath(s.opts.Dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segHeader[:]); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.activeSeg = &segment{
		seq:       seq,
		path:      path,
		minPrev:   ^uint64(0),
		recordEnd: segHeaderSize,
		fileSize:  segHeaderSize,
	}
	s.nextSeq = seq + 1
	return nil
}

// Append encodes rec and appends it to the active segment, sealing and
// rotating first when the segment is full, then applying retention. It is
// called off the ingest hot path (by the snapshotter goroutine or, in the
// synchronous pipeline, under the per-port freeze).
func (s *Store) Append(rec *Record) error {
	return s.AppendWith(rec, nil)
}

// AppendWith is Append with a post-write hook: after the record is framed
// into the active segment, fn (if non-nil) is invoked — still under the
// store lock, so hook order is log order — with the encoded payload. The
// checkpoint stream publishes through this hook so subscribers reuse the
// bytes the log write already produced instead of encoding twice. fn must
// copy whatever it keeps; the buffer goes back to a pool on return.
//
// The encode itself runs before the lock is taken: it is the expensive part
// of an append, and Covering, ReplaySince and Stats need not queue behind
// it. Appends from one goroutine still land in call order.
func (s *Store) AppendWith(rec *Record, fn func(payload []byte)) error {
	bufp := encBufPool.Get().(*[]byte)
	payload, err := EncodeRecord((*bufp)[:0], rec)
	*bufp = payload[:0]
	defer encBufPool.Put(bufp)
	if err != nil {
		s.appendErrs.Inc()
		return err
	}
	raw := rec.MemBytes()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("histstore: store is closed")
	}
	if err := s.appendPayloadLocked(payload, rec.Port, rec.FreezeTime, rec.PrevFreeze, recFlags(rec)); err != nil {
		return err
	}
	s.rawBytes.Add(raw)
	if fn != nil {
		fn(payload)
	}
	return nil
}

// encBufPool recycles AppendWith's encode buffers.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendEncoded appends an already-encoded record payload under the given
// indexed metadata, skipping the encode entirely. This is the mirror-side
// ingest path: the fleet collector receives checkpoint frames carrying the
// switch's encoded payload plus its metadata, so replicating the log costs
// one frame write and zero codec work. The raw-bytes counter is not
// advanced (there is no decoded form to measure), so CompressionRatio on a
// mirror store reads 0.
func (s *Store) AppendEncoded(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("histstore: store is closed")
	}
	var flags byte
	if special {
		flags = recFlagSpecial
	}
	return s.appendPayloadLocked(payload, port, freezeTime, prevFreeze, flags)
}

// appendPayloadLocked frames one encoded record into the active segment:
// rotate when full, write, index, advance retention bookkeeping, fsync per
// policy. Shared by the encode (AppendWith) and pre-encoded
// (AppendEncoded) paths.
func (s *Store) appendPayloadLocked(payload []byte, port int, freezeTime, prevFreeze uint64, flags byte) error {
	if s.activeSeg.count > 0 &&
		s.activeSeg.recordEnd+int64(len(payload))+8 > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.appendErrs.Inc()
			return err
		}
	}
	off := s.activeSeg.recordEnd
	n, err := appendFrame(s.active, payload)
	if err != nil {
		// The segment may now hold a torn record; resync the in-memory end
		// to what was actually written is not knowable, so seal off at the
		// last known-good offset by truncating back.
		s.appendErrs.Inc()
		if terr := s.active.Truncate(off); terr == nil {
			s.active.Seek(off, 0)
		}
		return err
	}
	s.activeSeg.index = append(s.activeSeg.index, indexEntry{
		port:       port,
		freezeTime: freezeTime,
		prevFreeze: prevFreeze,
		offset:     off,
		payloadLen: uint32(len(payload)),
		flags:      flags,
	})
	s.activeSeg.noteRecord(freezeTime, prevFreeze)
	s.activeSeg.recordEnd += int64(n)
	s.activeSeg.fileSize = s.activeSeg.recordEnd
	if freezeTime > s.maxFreezeSeen {
		s.maxFreezeSeen = freezeTime
	}
	s.appended.Inc()
	s.encodedBytes.Add(int64(len(payload)))
	if s.opts.FsyncEvery > 0 {
		s.sinceSync++
		if s.sinceSync >= s.opts.FsyncEvery {
			s.sinceSync = 0
			if err := s.active.Sync(); err != nil {
				s.appendErrs.Inc()
				return err
			}
		}
	}
	s.updateDiskGaugesLocked()
	return nil
}

// rotateLocked seals the active segment, starts a fresh one, and applies
// size/age retention to the sealed set.
func (s *Store) rotateLocked() error {
	if err := s.activeSeg.seal(s.active); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.sealed = append(s.sealed, s.activeSeg)
	s.active, s.activeSeg = nil, nil
	if err := s.newActiveLocked(); err != nil {
		return err
	}
	s.pruneLocked()
	return nil
}

// pruneLocked removes sealed segments that fall outside the size or age
// budget, oldest first. The active segment is never pruned.
func (s *Store) pruneLocked() {
	for len(s.sealed) > 0 {
		oldest := s.sealed[0]
		drop := false
		if s.opts.MaxBytes > 0 && s.totalBytesLocked() > s.opts.MaxBytes {
			drop = true
		}
		if !drop && s.opts.MaxAgeNs > 0 && s.maxFreezeSeen > s.opts.MaxAgeNs &&
			oldest.maxFreeze < s.maxFreezeSeen-s.opts.MaxAgeNs {
			drop = true
		}
		if !drop {
			break
		}
		os.Remove(oldest.path)
		s.sealed = s.sealed[1:]
		s.cache.dropSegment(oldest.seq)
		s.prunedSegs.Inc()
	}
	s.updateDiskGaugesLocked()
}

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.sealed {
		n += seg.fileSize
	}
	if s.activeSeg != nil {
		n += s.activeSeg.fileSize
	}
	return n
}

func (s *Store) updateDiskGaugesLocked() {
	s.bytesOnDisk.Set(s.totalBytesLocked())
	n := int64(len(s.sealed))
	if s.activeSeg != nil {
		n++
	}
	s.segments.Set(n)
}

// Covering returns the cold checkpoints for port whose coverage interval
// (PrevFreeze, FreezeTime] overlaps the query interval [start, end), in
// ascending freeze-time order. Sealed-segment indexes are loaded lazily on
// first touch; records are decoded on cache miss and their index retained in
// the LRU.
func (s *Store) Covering(port int, start, end uint64) ([]*ColdCheckpoint, error) {
	if end <= start {
		return nil, nil
	}
	type locator struct {
		seg   uint64
		path  string
		limit int64
		entry indexEntry
	}
	var locs []locator

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("histstore: store is closed")
	}
	segs := make([]*segment, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	if s.activeSeg != nil {
		segs = append(segs, s.activeSeg)
	}
	for _, seg := range segs {
		if !seg.overlaps(start, end) {
			continue
		}
		if seg.index == nil {
			if err := seg.loadIndex(); err != nil {
				s.mu.Unlock()
				return nil, err
			}
			s.indexLoads.Inc()
		}
		for _, e := range seg.index {
			if e.port == port && e.freezeTime > start && e.prevFreeze < end {
				locs = append(locs, locator{seg: seg.seq, path: seg.path, limit: seg.recordEnd, entry: e})
			}
		}
	}
	s.mu.Unlock()

	out := make([]*ColdCheckpoint, 0, len(locs))
	for _, l := range locs {
		key := cacheKey{seg: l.seg, off: l.entry.offset}
		if cp, ok := s.cache.get(key); ok {
			s.cacheHits.Inc()
			out = append(out, cp)
			continue
		}
		s.cacheMisses.Inc()
		cp, err := s.decodeAt(key, l.path, l.entry.offset, l.limit)
		if err != nil {
			if os.IsNotExist(err) {
				// Segment pruned between index snapshot and read: the data
				// aged out of retention mid-query; skip it.
				continue
			}
			s.decodeErrs.Inc()
			return nil, err
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].freezeTime < out[j].freezeTime
	})
	return out, nil
}

// ReplaySince streams every stored record whose FreezeTime is strictly
// greater than since to fn, in append order (segment sequence, then
// intra-segment offset), passing the raw encoded payload and the indexed
// metadata. The payload is only valid for the duration of the call; fn
// must copy what it keeps. fn returning an error stops the replay and
// propagates. Reads happen outside the store lock, so appends proceed
// concurrently; records appended after the locator snapshot was taken are
// not replayed (a live subscription catches them instead). A segment
// pruned mid-replay is skipped, like in Covering: its data aged out of
// retention.
func (s *Store) ReplaySince(since uint64, fn func(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error) error {
	type locator struct {
		path  string
		limit int64
		entry indexEntry
	}
	var locs []locator

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("histstore: store is closed")
	}
	segs := make([]*segment, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	if s.activeSeg != nil {
		segs = append(segs, s.activeSeg)
	}
	for _, seg := range segs {
		// An empty segment (the fresh active one) has nothing to replay and
		// no footer to load an index from.
		if seg.count == 0 || seg.maxFreeze <= since {
			continue
		}
		if seg.index == nil {
			if err := seg.loadIndex(); err != nil {
				s.mu.Unlock()
				return err
			}
			s.indexLoads.Inc()
		}
		for _, e := range seg.index {
			if e.freezeTime > since {
				locs = append(locs, locator{path: seg.path, limit: seg.recordEnd, entry: e})
			}
		}
	}
	s.mu.Unlock()

	var f *os.File
	var open string
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, l := range locs {
		if f == nil || open != l.path {
			if f != nil {
				f.Close()
				f = nil
			}
			var err error
			f, err = os.Open(l.path)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return err
			}
			open = l.path
		}
		payload, err := readFrame(f, l.entry.offset, l.limit)
		if err != nil {
			return err
		}
		if err := fn(payload, l.entry.port, l.entry.freezeTime, l.entry.prevFreeze,
			l.entry.flags&recFlagSpecial != 0); err != nil {
			return err
		}
	}
	return nil
}

// decodeAt reads the record at the given location, decodes what queries read
// of it — everything up to the queue-monitor section, its Algorithm-3 index —
// and inserts that into the LRU. A racing decode of the same record is
// deduplicated: the first insert wins.
func (s *Store) decodeAt(key cacheKey, path string, off, limit int64) (*ColdCheckpoint, error) {
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	payload, err := readFrame(f, off, limit)
	f.Close()
	if err != nil {
		return nil, err
	}
	rec, _, err := decodeWindows(&reader{b: payload}, false)
	if err != nil {
		return nil, err
	}
	cp := &ColdCheckpoint{
		freezeTime: rec.FreezeTime,
		prevFreeze: rec.PrevFreeze,
		cfg:        rec.TW.Config(),
		filtered:   rec.TW,
	}
	s.decodeNs.Observe(uint64(time.Since(t0).Nanoseconds()))
	return s.cache.put(key, cp), nil
}

// DropCache discards every decoded checkpoint in the LRU, forcing the next
// cold query to decode from disk again. Benchmarking and memory-pressure
// aid; concurrent queries simply re-decode.
func (s *Store) DropCache() { s.cache.drop() }

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		BytesOnDisk:      s.totalBytesLocked(),
		RecoveredRecords: s.recoveredRecords,
		TruncatedBytes:   s.truncatedBytes,
	}
	st.Segments = len(s.sealed)
	if s.activeSeg != nil {
		st.Segments++
	}
	s.mu.Unlock()
	st.CacheBytes = s.cache.residentBytes()
	st.Appended = s.appended.Load()
	st.AppendErrors = s.appendErrs.Load()
	st.EncodedBytes = s.encodedBytes.Load()
	st.RawBytes = s.rawBytes.Load()
	st.CacheHits = s.cacheHits.Load()
	st.CacheMisses = s.cacheMisses.Load()
	st.PrunedSegments = s.prunedSegs.Load()
	return st
}

// Close seals the active segment (or removes it when empty) and drops the
// cache. The store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.active != nil {
		if s.activeSeg.count > 0 {
			if e := s.activeSeg.seal(s.active); e != nil && err == nil {
				err = e
			}
			s.sealed = append(s.sealed, s.activeSeg)
		} else {
			os.Remove(s.activeSeg.path)
		}
		if e := s.active.Close(); e != nil && err == nil {
			err = e
		}
		s.active, s.activeSeg = nil, nil
	}
	s.updateDiskGaugesLocked()
	s.cache.drop()
	return err
}
