// Package control implements PrintQueue's control-plane analysis program
// (paper §6): per-port activation with partitioned register arrays, frozen
// periodic register reads with double buffering, on-demand data-plane
// queries served from a third ("special") register set, and query execution
// against the checkpointed state.
package control

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/registers"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// Config configures a PrintQueue deployment on one switch.
type Config struct {
	// TW configures the time windows of every activated port.
	TW timewindow.Config
	// QM configures the queue monitor of every activated port/queue.
	QM qmonitor.Config
	// Ports lists the egress ports PrintQueue is activated on. As in the
	// paper, the count is rounded up to a power of two to size the register
	// partitions.
	Ports []int
	// QueuesPerPort is the number of priority classes tracked per port by
	// the queue monitor (the time windows are scheduling-agnostic and need
	// only one instance per port). Default 1.
	QueuesPerPort int
	// PollPeriodNs overrides the periodic checkpoint interval. Default (0)
	// is the set period of the time windows, the paper's upper bound for
	// loss-free polling.
	PollPeriodNs uint64
	// ReadRateEntriesPerSec models the control plane's register read
	// throughput (analysis-program I/O + PCIe). 0 means unlimited. When a
	// checkpoint read would take longer than the poll period, the flip is
	// counted as infeasible — the regime above the paper's Figure-13
	// "data exchange limit" line.
	ReadRateEntriesPerSec float64
	// DPTrigger, if non-nil, is evaluated for every dequeued packet that is
	// not late; when it returns true (and no data-plane query is in flight)
	// the packet triggers an on-demand freeze and query of its own queuing
	// interval. It runs on the goroutine that feeds the packet — the caller
	// of OnDequeue or of Pipeline.Ingest — before the packet is inserted,
	// never on a shard worker. It must be a predicate of the packet alone;
	// then where it runs changes no answer.
	DPTrigger func(p *pktrec.Packet) bool
	// MaxCheckpoints bounds the retained checkpoint history per port
	// (0 = unlimited). Older checkpoints are discarded FIFO.
	MaxCheckpoints int
	// History, when non-nil, enables the tiered checkpoint history: every
	// retired checkpoint is also appended — compactly encoded — to a
	// durable segment log, and interval queries that reach past the in-RAM
	// (hot) tier are answered from the log's cold tier. See histstore.
	History *histstore.Options
}

func (c *Config) normalize() error {
	if err := c.TW.Validate(); err != nil {
		return err
	}
	if err := c.QM.Validate(); err != nil {
		return err
	}
	if len(c.Ports) == 0 {
		return fmt.Errorf("control: no ports activated")
	}
	seen := make(map[int]bool, len(c.Ports))
	for _, p := range c.Ports {
		if p < 0 {
			return fmt.Errorf("control: negative port %d", p)
		}
		if seen[p] {
			return fmt.Errorf("control: duplicate port %d", p)
		}
		seen[p] = true
	}
	if c.QueuesPerPort <= 0 {
		c.QueuesPerPort = 1
	}
	if c.PollPeriodNs == 0 {
		c.PollPeriodNs = c.TW.SetPeriod()
	}
	return nil
}

// setSel identifies one register set by its two selector bits (Figure 8).
type setSel struct{ dp, flip bool }

func (s setSel) index() int {
	i := 0
	if s.flip {
		i |= 1
	}
	if s.dp {
		i |= 2
	}
	return i
}

// toggleFlip returns the selector with the periodic (second-highest) bit
// flipped.
func (s setSel) toggleFlip() setSel { return setSel{dp: s.dp, flip: !s.flip} }

// toggleDP returns the selector with the data-plane-query (highest) bit
// flipped.
func (s setSel) toggleDP() setSel { return setSel{dp: !s.dp, flip: s.flip} }

// Checkpoint is one frozen read of a port's register state.
type Checkpoint struct {
	// FreezeTime is when the registers were frozen; the checkpoint covers
	// dequeues in (PrevFreeze, FreezeTime].
	FreezeTime uint64
	PrevFreeze uint64
	// Special marks checkpoints produced by a data-plane query freeze
	// rather than the periodic poll.
	Special bool

	// TW is the time windows' Algorithm-3 index, as Windows.Freeze emits
	// it; the log and the stream carry it as it is.
	TW *timewindow.Filtered
	QM []*qmonitor.Snapshot // one per queue

	// set is the register set (setSel.index()) this checkpoint froze.
	// QueryOriginal needs the newest snapshot of each set, not every
	// checkpoint; the field lives in memory only.
	set uint8
}

// Filtered returns the checkpoint's time windows, the index interval
// queries search. With Coverage it makes a Checkpoint a timewindow.Covered.
func (c *Checkpoint) Filtered() *timewindow.Filtered { return c.TW }

// Coverage returns the dequeue-time span (PrevFreeze, FreezeTime] the
// checkpoint covers.
func (c *Checkpoint) Coverage() (prevFreeze, freezeTime uint64) {
	return c.PrevFreeze, c.FreezeTime
}

// memBytes is the checkpoint's resident footprint: its index and its
// monitors.
func (c *Checkpoint) memBytes() int64 {
	n := qmMemBytes(c.QM)
	if c.TW != nil {
		n += c.TW.MemBytes()
	}
	return n
}

// qmMemBytes is the footprint of one checkpoint's queue-monitor snapshots.
func qmMemBytes(qms []*qmonitor.Snapshot) int64 {
	n := int64(0)
	for _, qm := range qms {
		if qm != nil {
			n += qm.MemBytes()
		}
	}
	return n
}

// DPQuery is the record of one data-plane-triggered query.
type DPQuery struct {
	Port        int
	Queue       int
	Victim      flow.Key
	EnqTS       uint64
	DeqTS       uint64
	EnqQdepth   int
	FreezeTime  uint64
	Result      flow.Counts
	Checkpoint  *Checkpoint
	ReadLatency uint64 // ns the special-register read occupied the front end
	// Err is set, and Result left nil, when the victim's interval reached
	// into a history log written under another window configuration.
	Err error
}

// Stats aggregates control-plane accounting across ports.
type Stats struct {
	Checkpoints     int   // periodic freezes taken
	SpecialFreezes  int   // data-plane query freezes
	EntriesRead     int64 // register entries a hardware control plane reads for these freezes (whole arrays)
	InfeasibleFlips int   // freezes whose modelled read exceeded the poll period (Config.ReadRateEntriesPerSec)
	DPSuppressed    int   // data-plane triggers ignored because a read was in flight
	PacketsObserved int64
}

// statsCounters is the live, atomically updated form of Stats, registered
// in the telemetry registry so Stats() and /metrics read the same source.
// The counters are touched from sharded ingestion workers and their
// snapshot goroutines concurrently, and read by Stats() — or a
// scrape — at any time.
type statsCounters struct {
	checkpoints     *telemetry.Counter
	specialFreezes  *telemetry.Counter
	entriesRead     *telemetry.Counter
	cellsKept       *telemetry.Counter
	infeasibleFlips *telemetry.Counter
	// snapshotStalls counts flips that waited for their shard's snapshotter
	// to retire the set they were about to write: a property of the host,
	// not of the modelled switch, so it is kept out of Stats.
	snapshotStalls *telemetry.Counter
	dpSuppressed   *telemetry.Counter
	tsRegressions  *telemetry.Counter
	// ingestAfterClose counts packets handed to a Pipeline after its Close.
	// It lives here, not on the Pipeline, so /debug/pipeline still shows it
	// once the pipeline is gone.
	ingestAfterClose *telemetry.Counter
	// freezeRetireNs is the freeze-to-retire latency of checkpoint reads:
	// from the flip that froze a register set to the checkpoint joining the
	// query-visible history. Under a Pipeline this spans the snapshot queue
	// plus the background register copy; in synchronous mode it is the
	// inline copy alone.
	freezeRetireNs *telemetry.Histogram
	// ingestRetireNs runs from the wall time the feeding goroutine decided
	// the freeze (decision.at) to retirement: under a Pipeline it adds the
	// trigger packet's wait in the shard ring and the worker's batch ahead
	// of it to freezeRetireNs; in synchronous mode the two are equal.
	ingestRetireNs *telemetry.Histogram
}

// register binds the counters into a registry under their exported names.
func (sc *statsCounters) register(reg *telemetry.Registry) {
	sc.checkpoints = reg.Counter("printqueue_checkpoints_total",
		"Periodic register freezes taken across all ports.")
	sc.specialFreezes = reg.Counter("printqueue_special_freezes_total",
		"Register freezes triggered by data-plane queries.")
	sc.entriesRead = reg.Counter("printqueue_checkpoint_entries_read_total",
		"Register entries a hardware control plane reads for the checkpoints taken (whole arrays; the modelled PCIe cost).")
	sc.cellsKept = reg.Counter("printqueue_checkpoint_cells_kept_total",
		"Time-window index cells and queue-monitor levels actually copied into retired checkpoints (coverage- and staircase-trimmed).")
	sc.tsRegressions = reg.Counter("printqueue_timestamp_regressions_total",
		"Dequeues stamped before their port's last flip: inserted, never allowed to flip.")
	sc.ingestAfterClose = reg.Counter("printqueue_pipeline_ingest_after_close_total",
		"Packets for activated ports handed to an ingestion pipeline after its Close: refused, observed by nothing.")
	sc.infeasibleFlips = reg.Counter("printqueue_infeasible_flips_total",
		"Freezes whose modelled register read exceeded the poll period (the Fig. 13 data-exchange limit).")
	sc.snapshotStalls = reg.Counter("printqueue_snapshot_stalls_total",
		"Flips that waited for their shard's snapshotter to retire the register set they were about to write.")
	sc.dpSuppressed = reg.Counter("printqueue_dp_suppressed_total",
		"Data-plane query triggers ignored because a special read was in flight.")
	sc.freezeRetireNs = reg.Histogram("printqueue_checkpoint_freeze_to_retire_ns",
		"Latency from freezing a register set to its checkpoint retiring into the history.",
		telemetry.LatencyBuckets)
	sc.ingestRetireNs = reg.Histogram("printqueue_checkpoint_ingest_to_retire_ns",
		"Latency from feeding a checkpoint's trigger packet (the freeze decision) to its checkpoint retiring into the history.",
		telemetry.LatencyBuckets)
}

// observeRetire records a checkpoint's retirement in both latency
// histograms: frozenAt is when its register set froze, decidedAt when the
// feeding goroutine decided the freeze.
func (sc *statsCounters) observeRetire(frozenAt, decidedAt time.Time) {
	now := time.Now()
	sc.freezeRetireNs.Observe(uint64(now.Sub(frozenAt).Nanoseconds()))
	sc.ingestRetireNs.Observe(uint64(now.Sub(decidedAt).Nanoseconds()))
}

// queryPathCounters instruments the interval-query execution path: how much
// of the checkpoint history pruning eliminated, how many index cells the
// surviving run touched, and how much of it came from the cold tier.
type queryPathCounters struct {
	checkpointsScanned *telemetry.Counter
	checkpointsPruned  *telemetry.Counter
	cellsVisited       *telemetry.Counter
	coldCheckpoints    *telemetry.Counter
}

func (qc *queryPathCounters) register(reg *telemetry.Registry) {
	qc.checkpointsScanned = reg.Counter("printqueue_query_checkpoints_scanned_total",
		"Checkpoints an interval query actually executed against.")
	qc.checkpointsPruned = reg.Counter("printqueue_query_checkpoints_pruned_total",
		"Checkpoints skipped by the coverage binary search without being touched.")
	qc.cellsVisited = reg.Counter("printqueue_query_cells_visited_total",
		"Time-window index cells visited by interval queries.")
	qc.coldCheckpoints = reg.Counter("printqueue_query_cold_checkpoints_total",
		"Checkpoints served from the cold (on-disk) history tier by interval queries.")
}

type portState struct {
	id     int
	prefix int // rank among activated ports; the q-bit register prefix
	// subject is the precomputed event-log subject ("port=N"), so
	// recording an event never formats on a data-plane goroutine.
	subject string

	// mu guards the checkpoint and data-plane query histories, which the
	// port's ingestion goroutine and its shard's snapshot goroutine append
	// to and any number of query goroutines read. The per-packet hot path
	// takes no lock.
	mu sync.RWMutex

	tw [4]*timewindow.Windows // by setSel.index()
	qm [][4]*qmonitor.Monitor // [queue][set]

	// writeSel is the active register set. The goroutine that inserts the
	// port's packets owns it: a shard worker under a Pipeline.
	writeSel setSel
	// feed is the port's decision state; the goroutine that feeds the
	// port's packets owns it (decide).
	feed *feedState

	// packets counts dequeues observed on this port. Per-port so that each
	// ingestion worker increments an uncontended counter; Stats() sums them
	// and /metrics exports them as printqueue_port_packets_total{port=...}.
	packets *telemetry.Counter

	// snap, when non-nil, is the queue of the snapshotter of the port's
	// Pipeline shard: flips hand frozen register sets to it instead of
	// copying them inline on the packet path. NewPipeline sets it before
	// its workers start and Close clears it after they and their
	// snapshotters stop.
	snap chan snapJob

	// Pending-snapshot bookkeeping for off-hot-path checkpointing: flip
	// hands the frozen set to its shard's snapshotter and must not write
	// into a set whose read is still in flight (the paper's double-buffer
	// invariant). pendCond is signalled when a snapshot retires.
	pendMu     sync.Mutex
	pendCond   *sync.Cond
	pendingSet [4]bool
	pendingN   int

	checkpoints cpRing
	dpQueries   []*DPQuery
	// qmCarry[set] holds the queue-monitor snapshots of the newest
	// checkpoint of that register set the hot ring has evicted (nil until
	// one is). A set's records outlive its checkpoints: levels last written
	// while a since-evicted checkpoint's set was active appear in no
	// retained snapshot of the other sets, so QueryOriginal falls through
	// to the carry when the ring ends before it has seen all four sets.
	// Guarded by mu.
	qmCarry [4][]*qmonitor.Snapshot
}

// feedState is what a port's flip and trigger decisions are taken from
// (System.decide). Only the goroutine that feeds the port's packets reads or
// writes it — the caller of OnDequeue, of Pipeline.Ingest, or of FinalizePort
// after Close — so it is allocated apart from the portState and padded to
// one 64-byte line, which Go's size classes start on a line: under a
// Pipeline that goroutine writes it per packet, beside shard workers that
// write their own lines per packet.
type feedState struct {
	// lastFlip is the newest freeze decided: the coverage start of the
	// active register set. New seeds it from the log on a reopened switch.
	lastFlip uint64
	// quiet is how long after lastFlip a packet decides nothing (quietAt):
	// the poll period once the port has started, when no DPTrigger is
	// configured; 0 otherwise.
	quiet uint64
	// dpLockedUntil is when the in-flight special read completes; a trigger
	// before it is suppressed.
	dpLockedUntil uint64
	// started is set by the port's first packet that is not late.
	started bool
	_       [64 - 3*8 - 1]byte
}

// quietAt reports whether a packet dequeued at now decides nothing, so
// that a caller on the hot path may skip decide for it: it is not late, the
// port has started, and no poll period has passed since the last freeze,
// with no DPTrigger to ask.
func (f *feedState) quietAt(now uint64) bool {
	return now >= f.lastFlip && now-f.lastFlip < f.quiet
}

// decision is what the feeding goroutine decided for one packet (decide).
// The zero decision is "insert the packet, nothing more".
type decision struct {
	// flip freezes the active periodic set before the packet is inserted,
	// with coverage (prevFreeze, the packet's dequeue time].
	flip bool
	// dp runs a data-plane query after the packet is inserted. Its freeze
	// covers (prevFreeze, dequeue time] — or, when flip is set too, the
	// empty span at the dequeue time.
	dp         bool
	prevFreeze uint64
	// at is the wall time the decision was taken, set when flip or dp is:
	// where printqueue_checkpoint_ingest_to_retire_ns starts.
	at time.Time
}

// freezes reports whether the decision takes a freeze.
func (d *decision) freezes() bool { return d.flip || d.dp }

// System is the per-switch PrintQueue instance: the data-plane structures
// for every activated port plus the analysis program's state.
type System struct {
	cfg    Config
	layout registers.Layout
	// twFiles[i] backs window i across all ports and register sets.
	twFiles []*registers.File[timewindow.Reg]
	qmFile  *registers.File[qmonitor.Reg]
	ports   map[int]*portState
	// portTab is a dense port-id -> state table so the per-packet hot path
	// avoids a map lookup (the ingress flow-table match, in hardware terms).
	portTab []*portState
	stats   statsCounters
	qpath   queryPathCounters
	// telemetry is the system's metric registry: the stats counters, the
	// pipeline/snapshotter instrumentation, and the query-path metrics all
	// register here, and the ops server scrapes it.
	telemetry *telemetry.Registry
	// pipe is the open Pipeline (if any): at most one is attached at a
	// time, and introspection endpoints read it concurrently.
	pipe atomic.Pointer[Pipeline]
	// pipeEver records that a pipeline was ever attached, so readiness
	// can distinguish "never had a pipeline" (fine) from
	// "pipeline stopped" (degraded).
	pipeEver atomic.Bool
	// tracer and events are the optional observability planes installed
	// by EnableTracing; nil (the default) keeps every trace/event hook a
	// single atomic load + nil test.
	tracer atomic.Pointer[tracing.Tracer]
	events atomic.Pointer[tracing.EventLog]
	// hist is the durable cold tier of the checkpoint history (nil unless
	// Config.History is set); histBytes is the shared resident-bytes gauge
	// covering the hot tier plus the cold tier's decode LRU.
	hist      *histstore.Store
	histBytes *telemetry.Gauge
	// stream fans retired checkpoints out to live subscribers (the fleet
	// collector's mirrors). With no subscriber it costs one atomic load
	// per retire.
	stream streamHub
}

// New builds a System. Register arrays are allocated for r(#ports)
// partitions exactly as §6.1 describes.
func New(cfg Config) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	qmSlots := len(cfg.Ports) * cfg.QueuesPerPort
	s := &System{
		cfg:       cfg,
		layout:    registers.Layout{PortBits: registers.PortBitsFor(len(cfg.Ports)), IndexBits: int(cfg.TW.K)},
		ports:     make(map[int]*portState, len(cfg.Ports)),
		telemetry: telemetry.NewRegistry(),
	}
	s.stats.register(s.telemetry)
	s.qpath.register(s.telemetry)
	s.histBytes = s.telemetry.Gauge("printqueue_history_bytes",
		"Resident bytes of checkpoint history (hot tier + cold LRU).")
	if cfg.History != nil {
		hist, err := histstore.Open(*cfg.History, s.telemetry)
		if err != nil {
			return nil, err
		}
		s.hist = hist
	}
	s.twFiles = make([]*registers.File[timewindow.Reg], cfg.TW.T)
	for i := range s.twFiles {
		s.twFiles[i] = registers.NewFile[timewindow.Reg](s.layout)
	}
	qmLayout := registers.Layout{
		PortBits:  registers.PortBitsFor(qmSlots),
		IndexBits: bitsFor(cfg.QM.Entries()),
	}
	s.qmFile = registers.NewFile[qmonitor.Reg](qmLayout)

	maxPort := 0
	for _, port := range cfg.Ports {
		if port > maxPort {
			maxPort = port
		}
	}
	s.portTab = make([]*portState, maxPort+1)

	for rank, port := range cfg.Ports {
		ps := &portState{id: port, prefix: rank, subject: "port=" + strconv.Itoa(port), feed: new(feedState)}
		ps.pendCond = sync.NewCond(&ps.pendMu)
		ps.packets = s.telemetry.Counter("printqueue_port_packets_total",
			"Dequeued packets observed per activated port.",
			telemetry.L("port", strconv.Itoa(port)))
		for _, sel := range allSets() {
			storage := make([][]timewindow.Reg, cfg.TW.T)
			for i := range storage {
				storage[i] = s.twFiles[i].View(sel.dp, sel.flip, rank)
			}
			w, err := timewindow.New(cfg.TW, storage)
			if err != nil {
				return nil, err
			}
			ps.tw[sel.index()] = w
		}
		ps.qm = make([][4]*qmonitor.Monitor, cfg.QueuesPerPort)
		for q := 0; q < cfg.QueuesPerPort; q++ {
			for _, sel := range allSets() {
				view := s.qmFile.View(sel.dp, sel.flip, rank*cfg.QueuesPerPort+q)
				m, err := qmonitor.New(cfg.QM, view[:cfg.QM.Entries()])
				if err != nil {
					return nil, err
				}
				ps.qm[q][sel.index()] = m
			}
		}
		s.ports[port] = ps
		s.portTab[port] = ps
		if s.hist != nil {
			// A reopened switch's history goes on where its log ends: the
			// port's first freeze chains to the newest one logged, whether a
			// packet or a Finalize takes it.
			last, ok, err := s.hist.LastFreeze(port)
			if err != nil {
				return nil, err
			}
			if ok {
				ps.feed.lastFlip = last
			}
		}
	}
	return s, nil
}

func allSets() [4]setSel {
	return [4]setSel{
		{dp: false, flip: false},
		{dp: false, flip: true},
		{dp: true, flip: false},
		{dp: true, flip: true},
	}
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Config returns the system configuration (after normalization).
func (s *System) Config() Config { return s.cfg }

// Telemetry returns the system's metric registry. Components layered on
// the system (pipelines, query servers, ops endpoints) register and scrape
// their instrumentation here, so one /metrics page covers the deployment.
func (s *System) Telemetry() *telemetry.Registry { return s.telemetry }

// TraceOptions configures System.EnableTracing. Zero fields take the
// tracing package defaults (sampling stays off unless SampleEvery > 0,
// but the slow path and remote trace ids are always honored).
type TraceOptions struct {
	// SampleEvery samples 1-in-N locally issued queries. 0 disables
	// proactive sampling; remote trace ids and the slow path still work.
	SampleEvery int
	// SlowNs is the always-on slowlog threshold (0 = 10ms).
	SlowNs uint64
	// RingSize / SlowRingSize / MaxSpans bound the trace rings.
	RingSize     int
	SlowRingSize int
	MaxSpans     int
	// EventRing bounds the data-plane event ring (0 = 512).
	EventRing int
}

// EnableTracing installs the tracing and event planes on the system and
// registers their metrics. Safe to call while traffic flows (the planes
// are swapped in atomically); calling again replaces the rings but
// reuses the registered counters.
func (s *System) EnableTracing(o TraceOptions) (*tracing.Tracer, *tracing.EventLog) {
	tr := tracing.New(tracing.Config{
		SampleEvery:  o.SampleEvery,
		SlowNs:       o.SlowNs,
		RingSize:     o.RingSize,
		SlowRingSize: o.SlowRingSize,
		MaxSpans:     o.MaxSpans,
		Started: s.telemetry.Counter("printqueue_traces_started_total",
			"Traces opened (sampled, forced by a remote id, or slowlog promotions)."),
		Finished: s.telemetry.Counter("printqueue_traces_finished_total",
			"Traces closed; equals started when every trace is orphan-closed."),
		Slow: s.telemetry.Counter("printqueue_traces_slow_total",
			"Traces that crossed the slow-query threshold into the slowlog."),
		SpansDropped: s.telemetry.Counter("printqueue_trace_spans_dropped_total",
			"Spans dropped because a trace hit its span bound."),
	})
	ev := tracing.NewEventLog(o.EventRing)
	for k := 0; k < tracing.NumEventKinds; k++ {
		kind := tracing.EventKind(k)
		ev.SetCounter(kind, s.telemetry.Counter("printqueue_events_total",
			"Data-plane trigger events recorded in the event ring.",
			telemetry.L("kind", kind.String())))
	}
	s.tracer.Store(tr)
	s.events.Store(ev)
	return tr, ev
}

// Tracer returns the installed tracer, or nil when tracing is disabled.
// The nil tracer is safe to use: every method no-ops.
func (s *System) Tracer() *tracing.Tracer { return s.tracer.Load() }

// Events returns the installed event log, or nil when disabled (Record
// on a nil log is a no-op).
func (s *System) Events() *tracing.EventLog { return s.events.Load() }

// Degraded reports readiness problems: an empty slice means the system
// can serve. Today the one system-level condition is a pipeline that was
// attached and then stopped — ingestion is over, so the instance should
// be rotated out of serving before its history goes stale.
func (s *System) Degraded() []string {
	var reasons []string
	if s.pipeEver.Load() && s.pipe.Load() == nil {
		reasons = append(reasons, "pipeline-stopped")
	}
	return reasons
}

// Stats returns a snapshot of the control-plane counters. The counters are
// atomic (and shared with the telemetry registry, so /metrics shows the
// same values), making this safe to call from any goroutine while traffic
// is flowing — through the sharded ingestion pipeline or direct OnDequeue
// calls alike.
func (s *System) Stats() Stats {
	st := Stats{
		Checkpoints:     int(s.stats.checkpoints.Load()),
		SpecialFreezes:  int(s.stats.specialFreezes.Load()),
		EntriesRead:     s.stats.entriesRead.Load(),
		InfeasibleFlips: int(s.stats.infeasibleFlips.Load()),
		DPSuppressed:    int(s.stats.dpSuppressed.Load()),
	}
	for _, ps := range s.ports {
		st.PacketsObserved += ps.packets.Load()
	}
	return st
}

// Layout returns the time-window register layout (for SRAM accounting).
func (s *System) Layout() registers.Layout { return s.layout }

// entriesPerCheckpoint is the register entries copied per frozen read.
func (s *System) entriesPerCheckpoint() int {
	return s.cfg.TW.EntriesPerSnapshot() + s.cfg.QueuesPerPort*s.cfg.QM.EntriesPerSnapshot()
}

// readLatencyNs returns how long one checkpoint read occupies the control
// plane under the configured I/O budget.
func (s *System) readLatencyNs() uint64 {
	if s.cfg.ReadRateEntriesPerSec <= 0 {
		return 0
	}
	return uint64(float64(s.entriesPerCheckpoint()) / s.cfg.ReadRateEntriesPerSec * 1e9)
}

// OnDequeue is the egress-pipeline entry point: it is called for every
// packet leaving an activated port, in dequeue order, with metadata filled
// in. It takes the packet's decisions (decide), then updates the active
// register set, performing a due periodic flip before the insert and a
// data-plane query after it. Packets for ports without PrintQueue are
// ignored (the ingress flow table found no match).
func (s *System) OnDequeue(p *pktrec.Packet) {
	if p.Port < 0 || p.Port >= len(s.portTab) {
		return
	}
	ps := s.portTab[p.Port]
	if ps == nil {
		return
	}
	var d decision
	s.decide(ps.feed, p, &d)
	s.take(ps, p, &d)
	ps.packets.Add(1)
}

// decide takes a packet's decisions from its port's feedState into *d, on
// the goroutine that feeds the port: whether the port flips before the
// packet is inserted, and whether a data-plane query follows it. *d must be
// the zero decision; a packet that decides no freeze leaves it so. decide
// is the one flip and trigger rule; OnDequeue applies its decision inline,
// Pipeline.Ingest ends a batch with it.
//
// A packet stamped before the port's newest freeze is late: it is counted,
// inserted into the active set — whose coverage starts after it, so no
// interval query will count it — and takes no freeze, periodic or
// data-plane. Otherwise the unsigned difference below would wrap and flip,
// retiring a checkpoint that ends before it starts and breaking the
// ascending, chained coverage every search relies on. That holds on a port
// no packet has started too, when its newest freeze came from a Finalize or
// from the log of a reopened switch: a packet from before it would start
// the next checkpoint inside the logged coverage.
func (s *System) decide(f *feedState, p *pktrec.Packet, d *decision) {
	now := p.Meta.DeqTimestamp()
	if now < f.lastFlip {
		s.stats.tsRegressions.Add(1)
		return
	}
	switch {
	case !f.started:
		f.started = true
		f.lastFlip = now
		if s.cfg.DPTrigger == nil {
			f.quiet = s.cfg.PollPeriodNs
		}
	case now-f.lastFlip >= s.cfg.PollPeriodNs:
		d.flip, d.prevFreeze = true, f.lastFlip
		f.lastFlip = now
	}
	if s.cfg.DPTrigger != nil && s.cfg.DPTrigger(p) {
		if now < f.dpLockedUntil {
			s.stats.dpSuppressed.Add(1)
		} else {
			if !d.flip {
				d.prevFreeze = f.lastFlip
			}
			d.dp = true
			f.lastFlip = now
			f.dpLockedUntil = now + s.readLatencyNs()
		}
	}
	if d.freezes() {
		d.at = time.Now()
	}
}

// take inserts a packet into its port's active register set, applying the
// packet's decision around the insert in the serial order: flip, insert,
// then the data-plane query. It runs on the goroutine that owns the port's
// registers — OnDequeue's caller, or the port's shard worker for the last
// packet of a batch.
func (s *System) take(ps *portState, p *pktrec.Packet, d *decision) {
	now := p.Meta.DeqTimestamp()
	if d.flip {
		s.flip(ps, now, d.prevFreeze, d.at)
	}
	queue := s.insert(ps, p)
	if d.dp {
		prev := d.prevFreeze
		if d.flip {
			prev = now
		}
		s.dataPlaneQuery(ps, p, queue, now, prev, d.at)
	}
}

// onDequeueBatch is the shard worker's body over one batch: it inserts every
// packet and applies the decision the batch ends at (Pipeline.Ingest) to its
// last one. The port packet counters move once per run of one port's
// packets instead of once per packet: an atomic add per packet is a locked
// instruction per packet, and two ports' counters on one cache line — they
// are 8-byte objects, the allocator packs them — make two workers trade
// that line per packet for the System's life. A batch may interleave the
// shard's ports; it holds only activated ports' packets. Between batches the
// counters lag by at most the batch in hand; they are exact once the
// workers have drained (Pipeline.Close).
func (s *System) onDequeueBatch(pkts []pktrec.Packet, d *decision) {
	var run *portState
	n := int64(0)
	last := len(pkts) - 1
	for i := range pkts {
		p := &pkts[i]
		ps := s.portTab[p.Port]
		if i == last {
			s.take(ps, p, d)
		} else {
			s.insert(ps, p)
		}
		if ps != run {
			if run != nil {
				run.packets.Add(n)
			}
			run, n = ps, 0
		}
		n++
	}
	if run != nil {
		run.packets.Add(n)
	}
}

// insert records one packet in its port's active register set — the time
// windows and its queue's monitor — and returns the queue. Of memory
// another port's goroutine touches it writes nothing.
func (s *System) insert(ps *portState, p *pktrec.Packet) int {
	// The flow ID goes to both structures in two machine words.
	f := p.Flow.Pack()
	sel := ps.writeSel.index()
	ps.tw[sel].InsertPacked(f, p.Meta.DeqTimestamp())
	queue := p.Queue
	if queue < 0 || queue >= s.cfg.QueuesPerPort {
		queue = s.cfg.QueuesPerPort - 1
	}
	ps.qm[queue][sel].ObservePacked(f, p.Meta.EnqQdepth)
	return queue
}

// snapshotSet freezes register set sel of a port into a checkpoint and
// charges the read cost. In synchronous mode it runs on the caller; under a
// Pipeline it runs on the snapshot goroutine of the port's shard, off the
// packet path — the software analogue of the paper's asynchronous PCIe
// register reads.
//
// The checkpoint holds what a query on it can read: the Algorithm-3 index of
// the time-window cells its coverage can count and the queue monitors'
// staircase up to the top (timewindow.Windows.Freeze,
// qmonitor.Monitor.Freeze). The read cost charged is still the hardware's —
// whole arrays over PCIe, which is what EntriesRead, readLatencyNs and the
// Figure-13 feasibility model are about; what was copied is counted beside
// it.
func (s *System) snapshotSet(ps *portState, sel int, freezeTime, prevFreeze uint64, special bool) *Checkpoint {
	cp := &Checkpoint{
		FreezeTime: freezeTime,
		PrevFreeze: prevFreeze,
		Special:    special,
		TW:         ps.tw[sel].Freeze(prevFreeze, freezeTime),
		QM:         make([]*qmonitor.Snapshot, s.cfg.QueuesPerPort),
		set:        uint8(sel),
	}
	kept := cp.TW.KeptCells()
	for q := range cp.QM {
		cp.QM[q] = ps.qm[q][sel].Freeze()
		levels, _ := cp.QM[q].Levels()
		kept += len(levels)
	}
	s.stats.entriesRead.Add(int64(s.entriesPerCheckpoint()))
	s.stats.cellsKept.Add(int64(kept))
	return cp
}

// retire appends a checkpoint, enforcing the history bound, and returns
// the checkpoint evicted to make room (nil when none). With a bounded
// history the ring overwrites its oldest slot in place, so steady-state
// retirement is O(1) — no per-checkpoint slice re-copy. The evicted
// checkpoint's queue-monitor snapshots become its register set's carry;
// displaced is the carry they replace.
func (ps *portState) retire(cp *Checkpoint, max int) (evicted *Checkpoint, displaced []*qmonitor.Snapshot) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	evicted = ps.checkpoints.push(cp, max)
	if evicted != nil {
		displaced = ps.qmCarry[evicted.set]
		ps.qmCarry[evicted.set] = evicted.QM
	}
	return evicted, displaced
}

// retireCheckpoint is the full retirement path: ring insert, hot-tier byte
// accounting, and the durable-log append (when the tiered history is
// enabled). Callers must invoke it off the per-packet hot path (it is: flips
// and DP freezes only).
func (s *System) retireCheckpoint(ps *portState, cp *Checkpoint) {
	evicted, displaced := ps.retire(cp, s.cfg.MaxCheckpoints)
	s.histBytes.Add(cp.memBytes())
	if evicted != nil {
		// The evicted queue-monitor snapshots stay resident as the carry.
		s.histBytes.Add(qmMemBytes(evicted.QM) - evicted.memBytes() - qmMemBytes(displaced))
	}
	if s.hist != nil {
		rec := &histstore.Record{
			Port:       ps.id,
			FreezeTime: cp.FreezeTime,
			PrevFreeze: cp.PrevFreeze,
			Special:    cp.Special,
			TW:         cp.TW,
			QM:         cp.QM,
		}
		// Publish to subscribers through the append hook: the stream reuses
		// the bytes the log write encoded, and because the hook runs under
		// the store lock a subscriber sees every record exactly where its
		// replay of the log (ReplaySince, same lock) left off — whether
		// anyone is subscribed is decided there, inside publish, not here
		// ahead of the encode, or a subscriber arriving in between would
		// miss this record on both paths. Append failures are counted by
		// the store's own error counter; the hot tier keeps serving, so
		// ingestion never stops on a disk fault.
		_ = s.hist.AppendWith(rec, func(payload []byte) {
			s.stream.publish(ps.id, cp.FreezeTime, cp.PrevFreeze, cp.Special, payload)
		})
		return
	}
	if s.stream.active() {
		// No durable log, but live subscribers: encode solely for the
		// stream. Catch-up replay is unavailable on such a switch (nothing
		// to replay from), so gaps heal only as new checkpoints arrive.
		buf := getBuf()
		payload, err := histstore.EncodeRecord(buf[:0], &histstore.Record{
			Port:       ps.id,
			FreezeTime: cp.FreezeTime,
			PrevFreeze: cp.PrevFreeze,
			Special:    cp.Special,
			TW:         cp.TW,
			QM:         cp.QM,
		})
		if err == nil {
			s.stream.publish(ps.id, cp.FreezeTime, cp.PrevFreeze, cp.Special, payload)
			putBuf(payload)
		} else {
			putBuf(buf)
		}
	}
}

// snapshotRun binary-searches the history for the run of checkpoints whose
// coverage overlaps [start, end) and copies only that run — pruning before
// the copy, so a narrow query over a deep history never materializes the
// whole checkpoint list. Also returns the total history length for the
// pruning counters and the hot tier's coverage start (the oldest retained
// checkpoint's PrevFreeze; ^uint64(0) when the history is empty), below
// which the interval is the cold tier's. tr (nil = untraced) records the
// wait for the read lock as "server.lock_wait".
func (ps *portState) snapshotRun(start, end uint64, tr *tracing.Trace) (run []timewindow.Covered, total int, hotStart uint64) {
	ps.rlock(tr)
	defer ps.mu.RUnlock()
	hotStart = ^uint64(0)
	if ps.checkpoints.len() > 0 {
		hotStart = ps.checkpoints.at(0).PrevFreeze
	}
	return ps.checkpoints.pruneCopy(start, end), ps.checkpoints.len(), hotStart
}

// rlock takes the history's read lock — which a retiring checkpoint holds
// for writing — recording the wait as a "server.lock_wait" span of tr.
func (ps *portState) rlock(tr *tracing.Trace) {
	sp := tr.StartSpan("server.lock_wait", tracing.SrcServer)
	ps.mu.RLock()
	sp.End()
}

// markPending records that register set sel has a frozen read in flight.
func (ps *portState) markPending(sel int) {
	ps.pendMu.Lock()
	ps.pendingSet[sel] = true
	ps.pendingN++
	ps.pendMu.Unlock()
}

// clearPending retires set sel's frozen read and wakes any flip blocked on
// it.
func (ps *portState) clearPending(sel int) {
	ps.pendMu.Lock()
	ps.pendingSet[sel] = false
	ps.pendingN--
	ps.pendCond.Broadcast()
	ps.pendMu.Unlock()
}

// waitSetFree blocks until set sel has no frozen read in flight. Having to
// wait at all means the snapshotter fell a full poll period behind — the
// backpressure regime of the host, not a modelled switch limit — so the
// stall is counted in printqueue_snapshot_stalls_total and recorded as a
// freeze-stall event (the stall duration in ns).
func (ps *portState) waitSetFree(sel int, s *System) {
	ps.pendMu.Lock()
	if ps.pendingSet[sel] {
		s.stats.snapshotStalls.Add(1)
		start := time.Now()
		for ps.pendingSet[sel] {
			ps.pendCond.Wait()
		}
		ps.pendMu.Unlock()
		s.Events().Record(tracing.EventFreezeStall, ps.subject, time.Since(start).Nanoseconds(), 0)
		return
	}
	ps.pendMu.Unlock()
}

// drainPending blocks until every in-flight frozen read of this port has
// retired, so the checkpoint history is complete up to the last flip.
func (ps *portState) drainPending() {
	ps.pendMu.Lock()
	for ps.pendingN > 0 {
		ps.pendCond.Wait()
	}
	ps.pendMu.Unlock()
}

// flip performs one periodic frozen read: checkpoint the active set, then
// direct subsequent updates to the other periodic set (second-highest index
// bit toggled), seeding the queue monitor's top/seq continuity.
//
// Under a Pipeline, the packet path only toggles the write selector and
// hands the now-idle set to the snapshot goroutine of the port's shard; the
// full-set register copy happens off the hot path. If the set about to
// become the write target still has a read in flight — the shard's
// snapshotter is more than one poll period behind — the flip blocks
// until the read retires and the stall is counted as a snapshot stall. A
// read the modelled read rate cannot finish within the poll period is
// counted in InfeasibleFlips, the paper's Figure-13 data-exchange limit.
//
// The freeze covers (prevFreeze, now]; decidedAt is when the feeding
// goroutine decided it (decision.at).
func (s *System) flip(ps *portState, now, prevFreeze uint64, decidedAt time.Time) {
	oldSel := ps.writeSel.index()
	s.stats.checkpoints.Add(1)
	if lat := s.readLatencyNs(); lat > s.cfg.PollPeriodNs {
		s.stats.infeasibleFlips.Add(1)
	}
	newSel := ps.writeSel.toggleFlip()
	if ps.snap != nil {
		ps.waitSetFree(newSel.index(), s)
		ps.markPending(oldSel)
		ps.snap <- snapJob{ps: ps, sel: oldSel, freezeTime: now, prevFreeze: prevFreeze, frozenAt: time.Now(), decidedAt: decidedAt}
	} else {
		cp := s.snapshotSet(ps, oldSel, now, prevFreeze, false)
		s.retireCheckpoint(ps, cp)
		s.stats.observeRetire(decidedAt, decidedAt)
	}
	ps.writeSel = newSel
	ni := newSel.index()
	for q := 0; q < s.cfg.QueuesPerPort; q++ {
		ps.qm[q][ni].Adopt(ps.qm[q][oldSel].Top(), ps.qm[q][oldSel].Seq())
	}
}

// dataPlaneQuery performs the §6.2 on-demand read: freeze the current data
// into the "special" set position, direct updates to the set with the
// highest-order bit flipped, and execute the victim's own queuing interval
// as the query. The freeze covers (prevFreeze, now]; decidedAt is when the
// feeding goroutine decided it, locking further data-plane queries until
// the special read completes (decide).
func (s *System) dataPlaneQuery(ps *portState, p *pktrec.Packet, queue int, now, prevFreeze uint64, decidedAt time.Time) {
	// Under a Pipeline, periodic checkpoints may still be in flight on the
	// shard's snapshot goroutine. The special read is prioritized on
	// hardware but the query below walks the whole checkpoint chain, so
	// drain pending reads first: the history stays ordered by freeze time
	// and the query sees the same chain the serial path would.
	frozenAt := decidedAt
	if ps.snap != nil {
		ps.drainPending()
		frozenAt = time.Now()
	}
	cp := s.snapshotSet(ps, ps.writeSel.index(), now, prevFreeze, true)
	s.retireCheckpoint(ps, cp)
	s.stats.observeRetire(frozenAt, decidedAt)
	s.stats.specialFreezes.Add(1)
	oldSel := ps.writeSel.index()
	ps.writeSel = ps.writeSel.toggleDP()
	newSel := ps.writeSel.index()
	for q := 0; q < s.cfg.QueuesPerPort; q++ {
		ps.qm[q][newSel].Adopt(ps.qm[q][oldSel].Top(), ps.qm[q][oldSel].Seq())
	}
	lat := s.readLatencyNs()

	dq := &DPQuery{
		Port:        ps.id,
		Queue:       queue,
		Victim:      p.Flow,
		EnqTS:       p.Meta.EnqTimestamp,
		DeqTS:       p.Meta.DeqTimestamp(),
		EnqQdepth:   p.Meta.EnqQdepth,
		FreezeTime:  now,
		Checkpoint:  cp,
		ReadLatency: lat,
	}
	// The victim's queuing interval can reach past the just-frozen special
	// set into earlier register sets (a deep queue holds more history than
	// one set accumulated since its last rotation), and past those into the
	// log, so it is answered like any other interval, over the checkpoint
	// chain ending at the special freeze. The recency advantage of the
	// data-plane query is preserved: the newest, least-compressed data is in
	// the special set.
	dq.Result, dq.Err = s.foldInterval(ps, dq.EnqTS, dq.DeqTS, nil)
	ps.mu.Lock()
	ps.dpQueries = append(ps.dpQueries, dq)
	ps.mu.Unlock()
}

// FinalizePort forces a final checkpoint of a port's live registers at the
// given time, so post-run asynchronous queries can reach the most recent
// traffic. Typically called once after the simulation drains; under a
// Pipeline, only after Close.
func (s *System) FinalizePort(port int, now uint64) error {
	ps, ok := s.ports[port]
	if !ok {
		return fmt.Errorf("control: port %d not activated", port)
	}
	// The freeze covers (lastFlip, now]. On a port that has taken no packet
	// since New, lastFlip is its last Finalize or the log's newest freeze for
	// it (0 when there is neither), so a reopened switch's idle port chains
	// to its log instead of claiming (0, now] and hiding it from every
	// interval. A Finalize that would not end after the coverage starts takes
	// no freeze and is counted, like a late dequeue. The caller feeds the
	// port here, so the decision is taken and its state written on it.
	f := ps.feed
	if now < f.lastFlip || (!f.started && f.lastFlip > 0 && now == f.lastFlip) {
		s.stats.tsRegressions.Add(1)
		return nil
	}
	prevFreeze := f.lastFlip
	f.lastFlip = now
	s.flip(ps, now, prevFreeze, time.Now())
	if ps.snap != nil {
		ps.drainPending()
	}
	return nil
}

// Finalize checkpoints every activated port at the given time.
func (s *System) Finalize(now uint64) {
	for _, port := range s.cfg.Ports {
		_ = s.FinalizePort(port, now)
	}
}

// Checkpoints returns the retained checkpoint history of a port, oldest
// first. The returned slice is a stable copy; it is safe to use while the
// data plane keeps running.
func (s *System) Checkpoints(port int) []*Checkpoint {
	ps, ok := s.ports[port]
	if !ok {
		return nil
	}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.checkpoints.slice()
}

// DPQueries returns the data-plane queries executed on a port, oldest
// first, as a stable copy.
func (s *System) DPQueries(port int) []*DPQuery {
	ps, ok := s.ports[port]
	if !ok {
		return nil
	}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make([]*DPQuery, len(ps.dpQueries))
	copy(out, ps.dpQueries)
	return out
}

// QueryInterval executes an asynchronous time-window query: estimate the
// per-flow packet counts dequeued on the port during [start, end). The
// interval is split across the periodic checkpoints covering it (§6.3) and
// the per-checkpoint results are aggregated. With tracing enabled, the
// query may be sampled into a local trace; unsampled slow queries still
// reach the slowlog.
func (s *System) QueryInterval(port int, start, end uint64) (flow.Counts, error) {
	t := s.Tracer()
	if t == nil {
		return s.queryInterval(port, start, end, nil)
	}
	t0 := time.Now()
	tr := t.Start("interval")
	counts, err := s.queryInterval(port, start, end, tr)
	if tr != nil {
		tr.FinishErr(err)
	} else {
		t.MaybeSlow("interval", t0, time.Since(t0), err)
	}
	return counts, err
}

// queryInterval is QueryInterval with per-stage spans collected in tr (nil =
// untraced).
func (s *System) queryInterval(port int, start, end uint64, tr *tracing.Trace) (flow.Counts, error) {
	ps, ok := s.ports[port]
	if !ok {
		return nil, fmt.Errorf("control: port %d not activated", port)
	}
	if end <= start {
		return nil, fmt.Errorf("control: empty query interval [%d, %d)", start, end)
	}
	return s.foldInterval(ps, start, end, tr)
}

// foldInterval answers [start, end) on one port. The checkpoints whose
// coverage overlaps the interval form one run, oldest first: the cold tier's
// below the hot tier's coverage start (evicted from RAM but retained in the
// segment log), then the hot ring's. Both periodic and special checkpoints
// are in it: "the time periods covered by the periodically polled registers
// and special registers do not overlap, because [a] packet at any time point
// would belong to only one register set" (§6.2), and PrevFreeze chaining
// keeps the coverages disjoint across tiers too. timewindow.FoldInterval
// does the rest, into one accumulator on the calling goroutine: concurrent
// queries run on their own goroutines, one query is never split. tr
// collects the fold as one "server.accumulate" span.
func (s *System) foldInterval(ps *portState, start, end uint64, tr *tracing.Trace) (flow.Counts, error) {
	run, histLen, hotStart := ps.snapshotRun(start, end, tr)
	s.qpath.checkpointsPruned.Add(int64(histLen - len(run)))
	s.qpath.checkpointsScanned.Add(int64(len(run)))
	if cold := s.coldRun(ps.id, start, end, hotStart); len(cold) > 0 {
		hot := run
		run = make([]timewindow.Covered, 0, len(cold)+len(hot))
		for _, cc := range cold {
			run = append(run, cc)
		}
		run = append(run, hot...)
	}
	sp := tr.StartSpan("server.accumulate", tracing.SrcServer)
	defer sp.End()
	acc := timewindow.NewAccumulator(s.cfg.TW.T, nil)
	cells, err := timewindow.FoldInterval(acc, s.cfg.TW, run, start, end)
	if err != nil {
		return nil, err
	}
	s.qpath.cellsVisited.Add(int64(cells))
	return acc.Counts(), nil
}

// QueryOriginal executes a queue-monitor query: the original causes of
// congestion at the time instant closest to t, for the given port and
// priority queue, as of the checkpoint frozen nearest to t, counted per flow
// (the paper's reporting format; OriginalLevels lists them one by one).
// With tracing enabled, the query may be sampled into a local trace.
func (s *System) QueryOriginal(port, queue int, t uint64) (flow.Counts, error) {
	tracer := s.Tracer()
	if tracer == nil {
		return s.queryOriginal(port, queue, t, nil)
	}
	t0 := time.Now()
	tr := tracer.Start("original")
	counts, err := s.queryOriginal(port, queue, t, tr)
	if tr != nil {
		tr.FinishErr(err)
	} else {
		tracer.MaybeSlow("original", t0, time.Since(t0), err)
	}
	return counts, err
}

// queryOriginal is QueryOriginal's traced core: the staircase walk counts
// each culprit's flow as it names it, so no culprit list is built.
func (s *System) queryOriginal(port, queue int, t uint64, tr *tracing.Trace) (flow.Counts, error) {
	var sets [4]*qmonitor.Snapshot
	n, err := s.originalSets(port, queue, t, &sets, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.StartSpan("server.accumulate", tracing.SrcServer)
	counts := qmonitor.CountsAcross(sets[:n])
	sp.End()
	return counts, nil
}

// OriginalLevels is QueryOriginal's answer as the staircase itself: every
// original culprit with the queue level it raised the queue to and its
// sequence number, lowest level first.
func (s *System) OriginalLevels(port, queue int, t uint64) ([]qmonitor.Culprit, error) {
	var sets [4]*qmonitor.Snapshot
	n, err := s.originalSets(port, queue, t, &sets, nil)
	if err != nil {
		return nil, err
	}
	return qmonitor.CulpritsAcross(sets[:n]), nil
}

// originalSets checks port and queue and fills sets from the port's history
// (portState.originalSets), failing when it holds no checkpoint.
func (s *System) originalSets(port, queue int, t uint64, sets *[4]*qmonitor.Snapshot, tr *tracing.Trace) (int, error) {
	ps, ok := s.ports[port]
	if !ok {
		return 0, fmt.Errorf("control: port %d not activated", port)
	}
	if queue < 0 || queue >= s.cfg.QueuesPerPort {
		return 0, fmt.Errorf("control: queue %d out of range", queue)
	}
	n := ps.originalSets(queue, t, sets, tr)
	if n == 0 {
		return 0, fmt.Errorf("control: no checkpoints for port %d", port)
	}
	return n, nil
}

// originalSets fills sets with the snapshots QueryOriginal walks for time t
// — newest first, starting with the checkpoint frozen nearest to t — and
// returns how many there are (0 when the port has no checkpoints).
//
// Register-set rotation scatters the staircase across sets: a level written
// while set A was active is absent from set B's snapshot, so the monitor's
// state at a freeze is the per-half newest record over everything frozen up
// to it. That needs at most four snapshots, not the whole chain: a set is
// never cleared on a flip, Observe only overwrites a half with a larger
// sequence number, and Adopt hands seq and top from set to set, so an older
// snapshot of a set holds nothing its newest one lacks. The walk back stops
// once all four sets are seen; sets whose checkpoints the hot ring has all
// evicted are served from their carry, which makes the answer independent
// of where the ring happens to start. tr (nil = untraced) records the wait
// for the read lock.
func (ps *portState) originalSets(queue int, t uint64, sets *[4]*qmonitor.Snapshot, tr *tracing.Trace) int {
	ps.rlock(tr)
	defer ps.mu.RUnlock()
	if ps.checkpoints.len() == 0 {
		return 0
	}
	var seen [4]bool
	n := 0
	for i := ps.checkpoints.nearest(t); i >= 0 && n < len(sets); i-- {
		if cp := ps.checkpoints.at(i); !seen[cp.set] {
			seen[cp.set] = true
			sets[n] = cp.QM[queue]
			n++
		}
	}
	for set, carry := range ps.qmCarry {
		if !seen[set] && carry != nil {
			sets[n] = carry[queue]
			n++
		}
	}
	return n
}
