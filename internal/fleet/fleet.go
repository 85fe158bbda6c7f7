// Package fleet is the multi-switch collector tier of the reproduction:
// the paper's higher-layer diagnosis applications (Fig. 2) that query the
// per-switch analysis program on every hop of a packet's path. A
// Collector maintains one multiplexed query session (MuxClient, with its
// retry/backoff) per registered switch and answers a path's interval
// queries hop by hop: from the switch's mirror when it covers the
// interval, otherwise by a network leg under a bounded worker pool with a
// per-hop deadline.
//
// Partial-result semantics are the contract: every requested hop yields a
// HopResult — a hop that errors or times out is reported with its error,
// never silently dropped — so a diagnosis over a path with one dead
// switch still answers for the surviving hops.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/flow"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// SwitchInfo identifies one registered switch.
type SwitchInfo struct {
	// ID is the stable switch identifier hops refer to.
	ID string
	// Hop is the switch's position on the monitored path, 0-based.
	Hop int
	// Addr is the switch's query-plane TCP address.
	Addr string
}

// queryConn is the slice of the mux client the collector uses; a seam so
// tests can substitute a stub without a listener.
type queryConn interface {
	IntervalTraced(port int, start, end uint64, tr *tracing.Trace) (map[string]float64, error)
	Close() error
}

// member is one registered switch and its session state.
type member struct {
	info SwitchInfo
	conn queryConn
	// mirror is the switch's local checkpoint replica (nil unless
	// Options.Mirror is set).
	mirror *Mirror
}

// transportError reports whether err is a transport-level failure (the
// switch is unreachable or its connection died) as opposed to an
// application-level reply.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrHopTimeout) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Defaults for Options zero fields.
const (
	// DefaultWorkers bounds concurrent per-hop queries in one fan-out.
	DefaultWorkers = 8
	// DefaultHopTimeout is the per-switch deadline of one fan-out leg.
	DefaultHopTimeout = 2 * time.Second
)

// ErrHopTimeout marks a hop that missed the collector's per-switch
// deadline. The hop's client keeps its own (shorter) I/O deadlines and
// retry budget; this is the hard ceiling on one leg of a fan-out.
var ErrHopTimeout = errors.New("fleet: hop query deadline exceeded")

// Options tunes a Collector.
type Options struct {
	// Workers bounds how many per-hop queries run concurrently in one
	// fan-out (and across overlapping fan-outs). 0 means DefaultWorkers.
	Workers int
	// HopTimeout is the per-switch deadline of one fan-out leg; a hop that
	// misses it is reported with ErrHopTimeout. 0 means DefaultHopTimeout;
	// negative disables the deadline.
	HopTimeout time.Duration
	// Dial tunes every per-switch MuxClient session (timeouts, retry
	// budget, backoff, fault-injecting dialer).
	Dial control.DialOptions
	// Telemetry receives the printqueue_fleet_* metrics. nil uses a
	// private registry.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, samples fleet queries: one trace per sampled
	// fan-out absorbs the per-hop client spans and — because the trace id
	// travels on every leg's wire frame — each hop's server-side spans.
	Tracer *tracing.Tracer
	// Mirror enables checkpoint streaming: every registered switch gets a
	// local histstore replica fed by a checkpoint subscription, and hop
	// queries whose interval the replica covers are answered locally with
	// no network round trip.
	Mirror bool
	// MirrorDir is the root directory for the per-switch replica stores
	// (one subdirectory per switch ID). Required when Mirror is set.
	MirrorDir string
	// MirrorStalenessNs bounds how far a query's end may extend past a
	// mirror's covered span and still be served locally; such answers are
	// annotated Stale with their LagNs. 0 (the default) is strict: only
	// fully covered intervals are served from the mirror.
	MirrorStalenessNs uint64
	// MirrorDial, when non-nil, tunes the checkpoint-stream connections
	// separately from the query sessions (e.g. to fault-inject only the
	// stream). nil uses Dial.
	MirrorDial *control.DialOptions
}

// Collector maintains query sessions to a fleet of switches and serves
// path-correlated queries over them.
type Collector struct {
	opts Options
	dial func(addr string, opts control.DialOptions) (queryConn, error)
	sem  chan struct{}

	mu      sync.Mutex
	members map[string]*member
	closed  bool

	queries     *telemetry.Counter
	fanoutLat   *telemetry.Histogram
	hopErrors   *telemetry.Counter
	hopTimeouts *telemetry.Counter
	partials    *telemetry.Counter
	switchesG   *telemetry.Gauge

	streamFrames        *telemetry.Counter
	streamBytes         *telemetry.Counter
	streamResyncs       *telemetry.Counter
	streamReplayed      *telemetry.Counter
	streamReconnects    *telemetry.Counter
	streamMirrorQueries *telemetry.Counter
	streamFallbacks     *telemetry.Counter
	streamStaleServed   *telemetry.Counter
	streamRefused       *telemetry.Counter
}

// New builds a Collector. Register switches before querying.
func New(opts Options) *Collector {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.HopTimeout == 0 {
		opts.HopTimeout = DefaultHopTimeout
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Collector{
		opts: opts,
		dial: func(addr string, o control.DialOptions) (queryConn, error) {
			return control.DialMuxOpts(addr, o)
		},
		sem:     make(chan struct{}, opts.Workers),
		members: make(map[string]*member),
		queries: reg.Counter("printqueue_fleet_queries_total",
			"Fleet-level path queries fanned out by the collector."),
		fanoutLat: reg.Histogram("printqueue_fleet_fanout_latency_ns",
			"Wall-clock latency of one fleet fan-out (all hops answered or timed out).",
			telemetry.LatencyBuckets),
		hopErrors: reg.Counter("printqueue_fleet_hop_errors_total",
			"Per-hop failures inside fleet fan-outs.", telemetry.L("kind", "error")),
		hopTimeouts: reg.Counter("printqueue_fleet_hop_errors_total",
			"Per-hop failures inside fleet fan-outs.", telemetry.L("kind", "timeout")),
		partials: reg.Counter("printqueue_fleet_partial_results_total",
			"Fleet queries that returned with at least one failed hop alongside surviving answers."),
		switchesG: reg.Gauge("printqueue_fleet_switches",
			"Switches currently registered with the collector."),
		streamFrames: reg.Counter("printqueue_fleet_stream_frames_total",
			"Checkpoint frames ingested by the collector's mirrors."),
		streamBytes: reg.Counter("printqueue_fleet_stream_bytes_total",
			"Encoded checkpoint payload bytes ingested by the mirrors."),
		streamResyncs: reg.Counter("printqueue_fleet_stream_resyncs_total",
			"Stream resyncs observed (server dropped frames under backpressure or a sequence gap)."),
		streamReplayed: reg.Counter("printqueue_fleet_stream_replayed_total",
			"Checkpoint frames ingested from segment-log catch-up replays."),
		streamReconnects: reg.Counter("printqueue_fleet_stream_reconnects_total",
			"Checkpoint-stream redials after a break or resync."),
		streamMirrorQueries: reg.Counter("printqueue_fleet_stream_mirror_queries_total",
			"Hop queries answered locally from a mirror."),
		streamFallbacks: reg.Counter("printqueue_fleet_stream_fallbacks_total",
			"Hop queries that fell back to the network fan-out (mirror cold or lagged past the staleness bound)."),
		streamStaleServed: reg.Counter("printqueue_fleet_stream_stale_served_total",
			"Mirror answers served with an explicit staleness annotation."),
		streamRefused: reg.Counter("printqueue_fleet_stream_refused_total",
			"Checkpoint frames a mirror refused to store: a record of a codec version this build does not read.",
			telemetry.L("reason", "codec_version")),
	}
}

// Register dials a query session to the switch and adds it to the fleet.
// IDs are unique; re-registering an ID fails.
func (c *Collector) Register(info SwitchInfo) error {
	if info.ID == "" {
		return errors.New("fleet: empty switch id")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return net.ErrClosed
	}
	if _, ok := c.members[info.ID]; ok {
		c.mu.Unlock()
		return fmt.Errorf("fleet: switch %q already registered", info.ID)
	}
	c.mu.Unlock()
	conn, err := c.dial(info.Addr, c.opts.Dial)
	if err != nil {
		return fmt.Errorf("fleet: dial switch %q at %s: %w", info.ID, info.Addr, err)
	}
	var mirror *Mirror
	if c.opts.Mirror {
		mirror, err = c.startMirror(info)
		if err != nil {
			conn.Close()
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		if mirror != nil {
			mirror.close()
		}
		return net.ErrClosed
	}
	if _, ok := c.members[info.ID]; ok {
		conn.Close()
		if mirror != nil {
			mirror.close()
		}
		return fmt.Errorf("fleet: switch %q already registered", info.ID)
	}
	c.members[info.ID] = &member{info: info, conn: conn, mirror: mirror}
	c.switchesG.Add(1)
	return nil
}

// Unregister closes the switch's session and removes it from the fleet.
func (c *Collector) Unregister(id string) error {
	c.mu.Lock()
	m, ok := c.members[id]
	if ok {
		delete(c.members, id)
		c.switchesG.Add(-1)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: switch %q not registered", id)
	}
	if m.mirror != nil {
		m.mirror.close()
	}
	return m.conn.Close()
}

// Close unregisters every switch and closes their sessions.
func (c *Collector) Close() error {
	c.mu.Lock()
	c.closed = true
	members := make([]*member, 0, len(c.members))
	for id, m := range c.members {
		members = append(members, m)
		delete(c.members, id)
	}
	c.switchesG.Add(int64(-len(members)))
	c.mu.Unlock()
	var first error
	for _, m := range members {
		if m.mirror != nil {
			m.mirror.close()
		}
		if err := m.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Switches returns the registered switches sorted by hop, then ID.
func (c *Collector) Switches() []SwitchInfo {
	c.mu.Lock()
	out := make([]SwitchInfo, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m.info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hop != out[j].Hop {
			return out[i].Hop < out[j].Hop
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (c *Collector) lookup(id string) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[id]
}

// HopRef names one hop of a path query: a registered switch and the
// egress port the victim's path takes through it.
type HopRef struct {
	SwitchID string
	Port     int
}

// HopResult is one hop's answer to a path query. Every requested hop
// yields exactly one HopResult — partial-result semantics — with either
// its per-flow packet counts or Err set.
type HopResult struct {
	SwitchID string
	Hop      int
	Port     int
	// Flows is the hop's per-flow packet counts, keyed by flow: what the
	// mirror's fold counted, or the switch's reply parsed once where it
	// entered the collector. Diagnose ranks it.
	Flows flow.Counts
	// Counts is Flows in the switch's wire form, flow keys as text:
	// Counts[k.String()] == Flows[k] for every flow.
	Counts map[string]float64
	Err    error
	// Latency is the hop's round-trip wall time (including retries), up
	// to the per-hop deadline. Mirror-served answers report the local
	// query time.
	Latency time.Duration
	// Mirrored marks an answer served from the collector's local replica
	// instead of a network round trip to the switch.
	Mirrored bool
	// Stale marks a mirrored answer whose interval extends past the
	// replica's covered span: data the switch retired after LagNs before
	// the query's end is missing. Never set silently — a stale answer is
	// only produced within Options.MirrorStalenessNs, or as the explicit
	// last resort when the switch itself is unreachable.
	Stale bool
	// LagNs is how far the query's end exceeded the mirror's covered
	// span (0 for fresh answers).
	LagNs uint64
}

// QueryPath fans an interval query out to every hop of the path
// concurrently (bounded by Options.Workers) and returns one HopResult per
// requested hop, in request order. It never returns early: hops that fail
// or miss the per-hop deadline are reported in place with their error.
func (c *Collector) QueryPath(hops []HopRef, start, end uint64) []HopResult {
	t0 := time.Now()
	c.queries.Inc()
	tr := c.opts.Tracer.Start("fleet.query")
	results := make([]HopResult, len(hops))
	var wg sync.WaitGroup
	for i, h := range hops {
		results[i] = HopResult{SwitchID: h.SwitchID, Hop: i, Port: h.Port}
		m := c.lookup(h.SwitchID)
		if m == nil {
			results[i].Err = fmt.Errorf("fleet: unknown switch %q", h.SwitchID)
			c.hopErrors.Inc()
			continue
		}
		results[i].Hop = m.info.Hop
		// Mirror fast path, inline: a covered interval is answered from
		// the local replica without a goroutine, a pool slot, or a wire
		// round trip — this is what makes a warm-mirror fan-out run at
		// local speed.
		if m.mirror != nil {
			if res, ok := c.tryMirror(m, h.Port, start, end, false); ok {
				results[i] = res
				continue
			}
			c.streamFallbacks.Inc()
		}
		wg.Add(1)
		go func(i int, m *member, port int) {
			defer wg.Done()
			c.sem <- struct{}{} // bounded fan-out pool
			defer func() { <-c.sem }()
			results[i] = c.queryHop(m, port, start, end, tr)
		}(i, m, h.Port)
	}
	wg.Wait()
	failed, ok := 0, 0
	for i := range results {
		if results[i].Err != nil {
			failed++
		} else {
			ok++
		}
	}
	if failed > 0 && ok > 0 {
		c.partials.Inc()
	}
	c.fanoutLat.ObserveEx(uint64(time.Since(t0)), tr.ID())
	if failed > 0 {
		tr.Finish(fmt.Sprintf("%d/%d hops failed", failed, len(results)))
	} else {
		tr.Finish("")
	}
	return results
}

// queryHop runs one hop's network leg (the mirror, if any, already
// declined inline in QueryPath) under the per-hop deadline. The leg's
// client spans and the hop's server spans land in tr (shared across legs;
// span recording is lock-free and concurrent-safe). A leg that dies with a
// transport error falls back to the mirror as an explicit last resort —
// annotated stale, never silent — which is how a blackholed switch keeps
// answering.
func (c *Collector) queryHop(m *member, port int, start, end uint64, tr *tracing.Trace) HopResult {
	res := HopResult{SwitchID: m.info.ID, Hop: m.info.Hop, Port: port}
	sp := tr.StartSpan("fleet.hop."+m.info.ID, tracing.SrcClient)
	t0 := time.Now()
	type answer struct {
		counts map[string]float64
		err    error
	}
	ch := make(chan answer, 1) // buffered: a late answer after deadline is dropped, not leaked
	go func() {
		counts, err := m.conn.IntervalTraced(port, start, end, tr)
		ch <- answer{counts, err}
	}()
	var deadlineC <-chan time.Time
	if c.opts.HopTimeout > 0 {
		timer := time.NewTimer(c.opts.HopTimeout)
		defer timer.Stop()
		deadlineC = timer.C
	}
	select {
	case a := <-ch:
		res.Counts, res.Err = a.counts, a.err
		if a.err == nil {
			if res.Flows, res.Err = parseCounts(a.counts); res.Err != nil {
				res.Counts = nil
			}
		}
		if res.Err != nil {
			c.hopErrors.Inc()
		}
	case <-deadlineC:
		res.Err = ErrHopTimeout
		c.hopTimeouts.Inc()
	}
	res.Latency = time.Since(t0)
	sp.End()
	if transportError(res.Err) && m.mirror != nil {
		if degraded, ok := c.tryMirror(m, port, start, end, true); ok {
			if !degraded.Stale {
				// Unreachable switch: annotate even a fully covered answer.
				degraded.Stale = true
				c.streamStaleServed.Inc()
			}
			return degraded
		}
	}
	return res
}

// parseCounts keys a switch's wire reply by flow. This is the one place the
// collector parses a flow key: a malformed one fails the hop. ParseKey reads
// a key from its one text form only, so no two reply keys name one flow and
// Counts[k.String()] == Flows[k] holds.
func parseCounts(counts map[string]float64) (flow.Counts, error) {
	flows := make(flow.Counts, len(counts))
	for s, n := range counts {
		k, err := flow.ParseKey(s)
		if err != nil {
			return nil, fmt.Errorf("fleet: malformed flow key %q in hop reply: %w", s, err)
		}
		flows[k] = n
	}
	return flows, nil
}
