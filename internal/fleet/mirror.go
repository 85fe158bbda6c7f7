package fleet

// Mirror is the collector-side half of checkpoint streaming: an embedded
// histstore replica of one switch's checkpoint history, fed by a
// CheckpointStream subscription. Frames arrive carrying the switch's
// already-encoded record payload plus its index metadata, so replication
// costs one segment-log append and zero codec work; interval queries then
// run the switch's own cold-tier path — histstore.Covering's per-port
// binary search over each segment's records, then the cell-index fold — at
// local speed, with no per-query network round trip.
//
// Soundness is coverage-based, not wall-clock-based: per-port freeze times
// are monotone, so once a record covering (PrevFreeze, FreezeTime] has
// been ingested, that span of the switch's history can never change
// retroactively. A query is served locally only when its interval lies
// inside the mirror's contiguous covered span (or sticks out by no more
// than the configured staleness bound, in which case the answer is
// explicitly annotated stale) — never silently.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/telemetry"
)

// mirrorCover tracks the contiguous covered suffix of one port's history:
// records with FreezeTime in (start, end] are all present. complete means
// the cover reaches back to the beginning of the switch's retained
// history (the port was first seen during a from-zero replay session), so
// queries starting before start are still fully answerable — the switch
// itself has nothing older either.
type mirrorCover struct {
	start    uint64
	end      uint64
	n        int
	complete bool
}

// Mirror replicates one switch's checkpoint log and answers interval
// queries from it.
type Mirror struct {
	c    *Collector
	info SwitchInfo
	dial control.DialOptions

	store *histstore.Store

	mu     sync.Mutex
	covers map[int]*mirrorCover
	cur    *control.CheckpointStream
	// sessionComplete marks the current subscription as a from-zero
	// replay: ports first seen under it get complete covers.
	sessionComplete bool

	// qcache memoizes interval answers. A cover is an append-only suffix:
	// while (end, n) are unchanged, the records a query folds over are
	// unchanged, so the cached counts stay exact. Entries are validated
	// against the live cover on every hit and the map is wiped wholesale at
	// the size bound — repeated dashboard queries cost one map lookup.
	qmu    sync.Mutex
	qcache map[mirrorQKey]mirrorQVal

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// mirrorQKey identifies one memoizable interval query.
type mirrorQKey struct {
	port       int
	start, end uint64
}

// mirrorQVal is a memoized answer, valid while the port's cover still has
// the same end and record count. Both forms of the counts are shared with
// every caller that hits the entry and must be treated as read-only.
type mirrorQVal struct {
	covEnd uint64
	covN   int
	flows  flow.Counts
	counts map[string]float64
}

// mirrorQCacheCap bounds the memo table; past it the table is dropped
// wholesale (cheaper than LRU bookkeeping on a hot path, and a full wipe
// just costs the next few queries a recompute).
const mirrorQCacheCap = 1024

// cachedQuery returns the memoized answer for the interval if the port's
// cover has not advanced since it was computed.
func (m *Mirror) cachedQuery(key mirrorQKey, cov mirrorCover) (mirrorQVal, bool) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	v, ok := m.qcache[key]
	if !ok || v.covEnd != cov.end || v.covN != cov.n {
		return mirrorQVal{}, false
	}
	return v, true
}

// storeQuery memoizes one computed answer.
func (m *Mirror) storeQuery(key mirrorQKey, v mirrorQVal) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.qcache == nil || len(m.qcache) >= mirrorQCacheCap {
		m.qcache = make(map[mirrorQKey]mirrorQVal, 64)
	}
	m.qcache[key] = v
}

// mirrorDirName maps a switch ID to a safe directory component, one to
// one: [A-Za-z0-9-] stay as they are and every other byte, '_' included,
// becomes '_' and two hex digits, so no two IDs share a replica directory.
// Register refuses the empty ID, which would name the mirror root itself.
func mirrorDirName(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	return b.String()
}

// startMirror opens the replica store and launches the streamer for one
// registered switch.
func (c *Collector) startMirror(info SwitchInfo) (*Mirror, error) {
	dir := filepath.Join(c.opts.MirrorDir, mirrorDirName(info.ID))
	// The mirror is a cache of the switch's durable log, not a store of
	// record: wipe any stale replica so a collector restart re-replays
	// from the switch instead of appending duplicates over old segments.
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("fleet: reset mirror dir for %q: %w", info.ID, err)
	}
	// Each mirror store gets a private registry: the store registers
	// fixed-name histstore gauges, which would collide across mirrors on
	// the collector's shared registry.
	st, err := histstore.Open(histstore.Options{Dir: dir}, telemetry.NewRegistry())
	if err != nil {
		return nil, fmt.Errorf("fleet: open mirror store for %q: %w", info.ID, err)
	}
	dialOpts := c.opts.Dial
	if c.opts.MirrorDial != nil {
		dialOpts = *c.opts.MirrorDial
	}
	m := &Mirror{
		c:      c,
		info:   info,
		dial:   dialOpts,
		store:  st,
		covers: make(map[int]*mirrorCover),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go m.run()
	return m, nil
}

// close stops the streamer (unblocking a pending Next via the connection)
// and closes the replica store.
func (m *Mirror) close() {
	m.once.Do(func() {
		close(m.stop)
		m.mu.Lock()
		if m.cur != nil {
			m.cur.Close()
		}
		m.mu.Unlock()
		<-m.done
		m.store.Close()
	})
}

// watermark is the resubscribe point: the smallest covered end across
// ports (records past it may be missing for some port). fresh reports
// that nothing has been ingested yet, i.e. the subscription replays the
// switch's whole retained history.
func (m *Mirror) watermark() (since uint64, fresh bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.covers) == 0 {
		return 0, true
	}
	since = ^uint64(0)
	for _, cov := range m.covers {
		if cov.end < since {
			since = cov.end
		}
	}
	return since, false
}

// run is the streamer goroutine: subscribe, ingest until the stream
// breaks (error, resync marker, or close), resubscribe from the watermark;
// the switch replays what the mirror missed from its log. The backoff
// resets only once a stream delivers a frame: a failed dial and a stream
// that ends without one (a switch without a log closes the subscription
// unanswered) are waited out alike, doubling up to backoffMax.
func (m *Mirror) run() {
	defer close(m.done)
	const backoffBase = 50 * time.Millisecond
	const backoffMax = 2 * time.Second
	backoff := backoffBase
	first := true
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		since, fresh := m.watermark()
		delivered := false
		if st, err := control.DialCheckpoints(m.info.Addr, since, m.dial); err == nil {
			if !first {
				m.c.streamReconnects.Inc()
			}
			first = false
			m.mu.Lock()
			m.cur = st
			m.sessionComplete = fresh
			m.mu.Unlock()
			// close() closes m.cur to unblock Next, but one that ran between
			// the stop check above and the store of m.cur found nothing to
			// close. Both sides take m.mu after their write (close: stop,
			// run: cur), so at least one of them sees the other's.
			select {
			case <-m.stop:
				st.Close()
				return
			default:
			}
			for {
				f, err := st.Next()
				if err != nil {
					if errors.Is(err, control.ErrStreamResync) {
						m.c.streamResyncs.Inc()
					}
					break
				}
				delivered, backoff = true, backoffBase
				m.ingest(f)
			}
			m.mu.Lock()
			m.cur = nil
			m.mu.Unlock()
			st.Close()
		}
		if !delivered {
			if !m.sleep(backoff) {
				return
			}
			backoff = min(2*backoff, backoffMax)
		}
	}
}

// sleep waits d or until the mirror is stopped.
func (m *Mirror) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.stop:
		return false
	case <-t.C:
		return true
	}
}

// ingest replicates one pushed checkpoint frame: append the encoded
// payload to the local segment log, then advance the port's cover. The
// append happens first so the cover never claims data the store does not
// hold. Duplicates (the reconnect watermark is the minimum across ports, and
// a switch of an older build overlapped its live records with its replay)
// are skipped by freeze time. A record of a codec version this build does
// not read — a switch upgraded before its collector — is refused and
// counted, not stored: every query touching it would fail. The cover then
// has a hole where it was, which keeps the mirror from answering across it;
// the hop goes to the switch instead.
func (m *Mirror) ingest(f control.CheckpointFrame) {
	m.c.streamFrames.Inc()
	m.c.streamBytes.Add(int64(len(f.Payload)))
	if f.Replay {
		m.c.streamReplayed.Inc()
	}
	if histstore.CheckVersion(f.Payload) != nil {
		m.c.streamRefused.Inc()
		return
	}
	m.mu.Lock()
	if cov := m.covers[f.Port]; cov != nil && f.FreezeTime <= cov.end {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	if err := m.store.AppendEncoded(f.Payload, f.Port, f.FreezeTime, f.PrevFreeze, f.Special); err != nil {
		return
	}
	m.mu.Lock()
	if cov := m.covers[f.Port]; cov == nil {
		m.covers[f.Port] = &mirrorCover{
			start:    f.PrevFreeze,
			end:      f.FreezeTime,
			n:        1,
			complete: m.sessionComplete,
		}
	} else {
		if f.PrevFreeze > cov.end {
			// A hole: records between cov.end and f.PrevFreeze never
			// arrived (retention removed them from the switch's log before
			// the stream read them, the switch could not read them back,
			// the mirror refused them, or a switch of an older build
			// dropped them). Shrink the contiguous cover to
			// the post-gap suffix; pre-gap records stay in the store but
			// Covering's freeze-time filter keeps them out of any query
			// the cover admits.
			cov.start = f.PrevFreeze
			cov.complete = false
		}
		cov.end = f.FreezeTime
		cov.n++
	}
	m.mu.Unlock()
}

// coverage returns the port's covered span (a copy).
func (m *Mirror) coverage(port int) (mirrorCover, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cov := m.covers[port]
	if cov == nil {
		return mirrorCover{}, false
	}
	return *cov, true
}

// Query answers an interval query from the replica, bit-identically to
// the switch's own query path: the same coverage search and the same fold
// (timewindow.FoldInterval), under the window configuration the records
// themselves carry. Callers gate on coverage first; this method just
// computes over whatever records the store holds.
func (m *Mirror) Query(port int, start, end uint64) (flow.Counts, error) {
	if end <= start {
		return nil, fmt.Errorf("fleet: empty interval [%d, %d)", start, end)
	}
	cps, err := m.store.Covering(port, start, end)
	if err != nil {
		return nil, err
	}
	if len(cps) == 0 {
		return flow.Counts{}, nil
	}
	cfg := cps[0].Config()
	acc := timewindow.NewAccumulator(cfg.T, nil)
	if _, err := timewindow.FoldInterval(acc, cfg, cps, start, end); err != nil {
		return nil, err
	}
	return acc.Counts(), nil
}

// textCounts is counts in the wire form a switch replies with.
func textCounts(counts flow.Counts) map[string]float64 {
	res := make(map[string]float64, len(counts))
	for f, n := range counts {
		res[f.String()] = n
	}
	return res
}

// tryMirror attempts to serve one hop query from the member's mirror.
// Normal mode (degraded=false) serves only when the interval is fully
// covered, or lags past the cover's end by no more than
// Options.MirrorStalenessNs — the lagged answer is annotated Stale with
// its LagNs. Degraded mode (the network leg already failed with a
// transport error) serves any overlapping coverage, always annotated
// stale with the measured lag: an explicit degraded answer, never a
// silent one.
func (c *Collector) tryMirror(m *member, port int, start, end uint64, degraded bool) (HopResult, bool) {
	res := HopResult{SwitchID: m.info.ID, Hop: m.info.Hop, Port: port}
	mir := m.mirror
	if mir == nil {
		return res, false
	}
	cov, ok := mir.coverage(port)
	if !ok || cov.n == 0 {
		return res, false
	}
	if start < cov.start && !cov.complete {
		return res, false
	}
	var lag uint64
	if end > cov.end {
		lag = end - cov.end
	}
	if degraded {
		if cov.end <= start {
			// No overlap at all: an answer would be vacuously empty.
			return res, false
		}
	} else if lag > c.opts.MirrorStalenessNs {
		return res, false
	}
	t0 := time.Now()
	key := mirrorQKey{port: port, start: start, end: end}
	v, hit := mir.cachedQuery(key, cov)
	if !hit {
		flows, err := mir.Query(port, start, end)
		if err != nil {
			return res, false
		}
		v = mirrorQVal{covEnd: cov.end, covN: cov.n, flows: flows, counts: textCounts(flows)}
		mir.storeQuery(key, v)
	}
	res.Flows, res.Counts = v.flows, v.counts
	res.Latency = time.Since(t0)
	res.Mirrored = true
	res.LagNs = lag
	res.Stale = lag > 0
	c.streamMirrorQueries.Inc()
	if res.Stale {
		c.streamStaleServed.Inc()
	}
	return res, true
}
