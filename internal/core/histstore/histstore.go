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
//
// The log is also a switch's checkpoint stream: each subscriber Follows it
// from its own position, so an append never waits for one nor copies for it.
package histstore

import (
	"errors"
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
	frameBuf  []byte     // appendFrame's frame storage, reused append to append
	sealed    []*segment // ascending seq
	nextSeq   uint64
	sinceSync int

	maxFreezeSeen uint64 // newest freeze time ever appended (age pruning)

	// wake is closed by the next append or by Close, to wake the followers
	// waiting on it; it is made only when one waits.
	wake chan struct{}

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
		decodeErrs:   reg.Counter("printqueue_hist_decode_errors_total", "Checkpoint records that failed to decode at query time, or that a subscription could not read and skipped."),
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
//
// The encode itself runs before the lock is taken: it is the expensive part
// of an append, and Covering, ReplaySince, Follow and Stats need not queue
// behind it. Appends from one goroutine still land in call order.
func (s *Store) Append(rec *Record) error {
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
	return nil
}

// encBufPool recycles Append's encode buffers.
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
// refuse it when it is out of its port's freeze order, rotate when full,
// write, index, advance retention bookkeeping, wake the followers, fsync per
// policy. Shared by the encode (Append) and pre-encoded (AppendEncoded)
// paths.
func (s *Store) appendPayloadLocked(payload []byte, port int, freezeTime, prevFreeze uint64, flags byte) error {
	if err := s.checkOrderLocked(port, freezeTime, prevFreeze); err != nil {
		s.appendErrs.Inc()
		return err
	}
	if s.activeSeg.count > 0 &&
		s.activeSeg.recordEnd+int64(len(payload))+8 > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.appendErrs.Inc()
			return err
		}
	}
	off := s.activeSeg.recordEnd
	frame, err := appendFrame(s.active, s.frameBuf, payload)
	s.frameBuf = frame[:0]
	n := len(frame)
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
	s.activeSeg.add(indexEntry{
		port:       port,
		freezeTime: freezeTime,
		prevFreeze: prevFreeze,
		offset:     off,
		payloadLen: uint32(len(payload)),
		flags:      flags,
	})
	s.activeSeg.recordEnd += int64(n)
	s.activeSeg.fileSize = s.activeSeg.recordEnd
	if freezeTime > s.maxFreezeSeen {
		s.maxFreezeSeen = freezeTime
	}
	s.appended.Inc()
	s.encodedBytes.Add(int64(len(payload)))
	s.wakeLocked()
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

// checkOrderLocked refuses a record of port covering (prevFreeze,
// freezeTime] that would break the port's freeze order: its coverage is
// inverted, or it starts before the port's newest logged record ends.
// Covering's binary search rests on that order.
func (s *Store) checkOrderLocked(port int, freezeTime, prevFreeze uint64) error {
	if freezeTime < prevFreeze {
		return fmt.Errorf("histstore: port %d record covers (%d, %d], an inverted interval", port, prevFreeze, freezeTime)
	}
	last, ok, err := s.lastFreezeLocked(port)
	if err != nil {
		return err
	}
	if ok && prevFreeze < last {
		return fmt.Errorf("histstore: port %d record covers (%d, %d], before the port's newest freeze %d", port, prevFreeze, freezeTime, last)
	}
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

// segAt returns the i-th segment in log order: the sealed ones, then the
// active one at i == len(s.sealed) (nil once the store is closed).
func (s *Store) segAt(i int) *segment {
	if i < len(s.sealed) {
		return s.sealed[i]
	}
	return s.activeSeg
}

// indexLocked loads a sealed segment's index on first touch.
func (s *Store) indexLocked(seg *segment) error {
	if seg.index != nil {
		return nil
	}
	if err := seg.loadIndex(); err != nil {
		return err
	}
	s.indexLoads.Inc()
	return nil
}

// Covering returns the cold checkpoints for port whose coverage interval
// (PrevFreeze, FreezeTime] overlaps the query interval [start, end), in
// ascending freeze-time order. Each overlapping segment's view of the port
// is binary-searched for its first record ending after start and read up to
// the first one starting at or after end, so a segment costs O(log n + hits)
// however many records of other ports it holds. A segment an older build
// left out of freeze order is scanned instead, and the hits sorted.
// Sealed-segment indexes are loaded lazily on first touch; records are
// decoded on cache miss and their index retained in the LRU.
func (s *Store) Covering(port int, start, end uint64) ([]*ColdCheckpoint, error) {
	if end <= start {
		return nil, nil
	}
	var locs []recordLoc
	sorted := true

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("histstore: store is closed")
	}
	for i := 0; i <= len(s.sealed); i++ {
		seg := s.segAt(i)
		if !seg.overlaps(start, end) {
			continue
		}
		if err := s.indexLocked(seg); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		view, j := seg.ports[port], 0
		if !seg.unordered {
			j = seg.firstEndingAfter(view, start)
		}
		for ; j < len(view); j++ {
			e := &seg.index[view[j]]
			if e.prevFreeze >= end && !seg.unordered {
				break
			}
			if e.freezeTime <= start || e.prevFreeze >= end {
				continue
			}
			if n := len(locs); n > 0 && e.freezeTime < locs[n-1].entry.freezeTime {
				sorted = false
			}
			locs = append(locs, s.locLocked(seg, e))
		}
	}
	s.mu.Unlock()
	if !sorted {
		sort.SliceStable(locs, func(i, j int) bool { return locs[i].entry.freezeTime < locs[j].entry.freezeTime })
	}

	var r recordReader
	defer r.close()
	out := make([]*ColdCheckpoint, 0, len(locs))
	for i := range locs {
		l := &locs[i]
		key := cacheKey{seg: l.seq, off: l.entry.offset}
		if cp, ok := s.cache.get(key); ok {
			s.cacheHits.Inc()
			out = append(out, cp)
			continue
		}
		s.cacheMisses.Inc()
		cp, err := s.decodeAt(key, &r, l)
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
	return out, nil
}

// LastFreeze returns the newest FreezeTime logged for port; ok is false when
// the log holds no record of it. Segments are searched newest first, and a
// sealed one's index is loaded as Covering loads it, so a reopened store
// reads the footers of its newest segments only.
func (s *Store) LastFreeze(port int) (freeze uint64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false, fmt.Errorf("histstore: store is closed")
	}
	return s.lastFreezeLocked(port)
}

// lastFreezeLocked is LastFreeze under the store lock: the largest freeze
// time of the port in the newest segment that has a record of it.
func (s *Store) lastFreezeLocked(port int) (uint64, bool, error) {
	for i := len(s.sealed); i >= 0; i-- {
		seg := s.segAt(i)
		if seg == nil || seg.count == 0 {
			continue
		}
		if err := s.indexLocked(seg); err != nil {
			return 0, false, err
		}
		if freeze, ok := seg.lastFreeze(port); ok {
			return freeze, true, nil
		}
	}
	return 0, false, nil
}

// logPos is a position in the log: record idx of the segment numbered seq.
// A position stays valid across rotation, which keeps a segment's number,
// and across retention: a pruned segment is passed over for the next one.
type logPos struct {
	seq uint64
	idx int
}

// locateLocked appends to locs the records from pos to the end of the log
// whose FreezeTime is after since, in append order, and returns them with
// the position past the last record, passing over without loading its index
// a segment whose records all freeze at or before since. An index that fails
// to load is an error, or, when bad is set, counted there and passed over.
// The caller holds the store lock.
func (s *Store) locateLocked(pos logPos, since uint64, locs []recordLoc, bad *telemetry.Counter) ([]recordLoc, logPos, error) {
	if s.closed {
		return locs, pos, fmt.Errorf("histstore: store is closed")
	}
	i := sort.Search(len(s.sealed), func(i int) bool { return s.sealed[i].seq >= pos.seq })
	for ; i <= len(s.sealed); i++ {
		seg := s.segAt(i)
		if seg.seq != pos.seq {
			pos = logPos{seq: seg.seq}
		}
		if pos.idx < seg.count && seg.maxFreeze > since {
			if err := s.indexLocked(seg); err != nil {
				if bad == nil {
					return locs, pos, err
				}
				bad.Inc()
			} else {
				for j := pos.idx; j < seg.count; j++ {
					if e := &seg.index[j]; e.freezeTime > since {
						locs = append(locs, s.locLocked(seg, e))
					}
				}
			}
		}
		pos.idx = seg.count
	}
	return locs, pos, nil
}

// ReplaySince streams every stored record whose FreezeTime is after since
// to fn, in append order, with its raw encoded payload and indexed metadata.
// The payload is valid for the call only (one buffer serves the replay). fn
// returning an error stops the replay and propagates. Reads happen outside
// the store lock, so appends proceed concurrently; records appended after
// the records were located are not replayed (Follow reads on). A segment
// pruned before the replay reaches it is skipped, like in Covering; any
// other read error is returned.
func (s *Store) ReplaySince(since uint64, fn func(payload []byte, port int, freezeTime, prevFreeze uint64, special bool) error) error {
	s.mu.Lock()
	locs, _, err := s.locateLocked(logPos{}, since, nil, nil)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return readLocs(locs, nil, func(payload []byte, e *indexEntry) error {
		return fn(payload, e.port, e.freezeTime, e.prevFreeze, e.flags&recFlagSpecial != 0)
	})
}

// Follow is ReplaySince that does not end at the end of the log: it streams
// the records whose FreezeTime is after since, then every record appended
// after those, in append order, each once, until stop closes (nil), fn
// fails (its error) or the store closes (an error). logged tells fn whether
// the record was in the log when Follow started. The log is the follower's
// queue: an append never waits for it, and a follower that falls behind
// reads on from where it was. A segment retention removed is skipped; so
// are, counted in printqueue_hist_decode_errors_total, a record that fails
// its checksum and a segment whose index does not load. The payload is
// valid for the call only.
func (s *Store) Follow(since uint64, stop <-chan struct{}, fn func(payload []byte, port int, freezeTime, prevFreeze uint64, special, logged bool) error) error {
	var pos logPos
	var locs []recordLoc
	logged := true
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		var err error
		var wake chan struct{}
		s.mu.Lock()
		locs, pos, err = s.locateLocked(pos, since, locs[:0], s.decodeErrs)
		if err == nil && len(locs) == 0 {
			if s.wake == nil {
				s.wake = make(chan struct{})
			}
			wake = s.wake
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if wake != nil {
			select {
			case <-wake:
			case <-stop:
				return nil
			}
		} else if err := readLocs(locs, s.decodeErrs, func(payload []byte, e *indexEntry) error {
			return fn(payload, e.port, e.freezeTime, e.prevFreeze, e.flags&recFlagSpecial != 0, logged)
		}); err != nil {
			return err
		}
		// Only the records logged at the start are filtered by since: every
		// later one is new to the follower.
		since, logged = 0, false
		// Do not hold a catch-up pass's capacity for the follower's life.
		if cap(locs) > 1024 {
			locs = nil
		}
	}
}

// wakeLocked wakes every follower waiting for an append. The caller holds
// the store lock.
func (s *Store) wakeLocked() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// readLocs reads the located records in order, outside the store lock, and
// hands each payload to fn. A record whose segment was pruned since it was
// located is skipped; any other read error is returned, or, when bad is
// set, counted there and skipped.
func readLocs(locs []recordLoc, bad *telemetry.Counter, fn func(payload []byte, e *indexEntry) error) error {
	var r recordReader
	defer r.close()
	for i := range locs {
		l := &locs[i]
		payload, err := r.read(l)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			if bad == nil {
				return err
			}
			bad.Inc()
			continue
		}
		if err := fn(payload, &l.entry); err != nil {
			return err
		}
	}
	return nil
}

// recordLoc locates one record for a read made outside the store lock.
type recordLoc struct {
	seq    uint64
	path   string
	writer *os.File // the segment's writer while it was the active one, else nil
	limit  int64
	entry  indexEntry
}

// locLocked locates entry e of seg. The caller holds the store lock.
func (s *Store) locLocked(seg *segment, e *indexEntry) recordLoc {
	l := recordLoc{seq: seg.seq, path: seg.path, limit: seg.recordEnd, entry: *e}
	if seg == s.activeSeg {
		l.writer = s.active
	}
	return l
}

// recordReader reads located records outside the store lock. A record of the
// active segment is read through the segment's writer, so the fresh
// checkpoint a query or a mirror reads first costs no file open. Any other
// record, or one whose segment was sealed and its writer closed since it was
// located, is read through a handle on its path, kept open while consecutive
// reads stay in one segment: a reader holds at most one descriptor. Every
// record is read in one ReadAt into the reader's one buffer, taken from a
// pool at the first read and returned at close, so a payload read is valid
// until the next read or close.
type recordReader struct {
	f    *os.File
	path string
	buf  *[]byte
}

// frameBufs holds the buffers recordReaders read frames into.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

func (r *recordReader) read(l *recordLoc) ([]byte, error) {
	if r.buf == nil {
		r.buf = frameBufs.Get().(*[]byte)
	}
	plen := uint64(l.entry.payloadLen)
	if l.writer != nil {
		payload, err := readFrame(l.writer, l.entry.offset, l.limit, plen, r.buf)
		if !errors.Is(err, os.ErrClosed) {
			return payload, err
		}
	}
	if r.f == nil || r.path != l.path {
		r.closeFile()
		f, err := os.Open(l.path)
		if err != nil {
			return nil, err
		}
		r.f, r.path = f, l.path
	}
	return readFrame(r.f, l.entry.offset, l.limit, plen, r.buf)
}

func (r *recordReader) close() {
	r.closeFile()
	if r.buf != nil {
		frameBufs.Put(r.buf)
		r.buf = nil
	}
}

func (r *recordReader) closeFile() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// decodeAt reads the located record through r, decodes what queries read
// of it — everything up to the queue-monitor section, its Algorithm-3 index —
// and inserts that into the LRU. A racing decode of the same record is
// deduplicated: the first insert wins. The payload stays in r's buffer: the
// decoder copies every key and builds fresh refs, so nothing it returns
// aliases it.
func (s *Store) decodeAt(key cacheKey, r *recordReader, l *recordLoc) (*ColdCheckpoint, error) {
	t0 := time.Now()
	payload, err := r.read(l)
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
	s.wakeLocked()
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
