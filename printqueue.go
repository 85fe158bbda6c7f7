// Package printqueue is a library reproduction of PrintQueue (SIGCOMM 2022):
// performance diagnosis via queue measurement in the data plane.
//
// PrintQueue answers, for a victim packet that suffered queuing delay at a
// switch egress port, which flows caused the delay and by how much. It
// tracks three classes of culprit packets:
//
//   - direct culprits: packets dequeued while the victim sat in the queue;
//   - indirect culprits: earlier packets of the same congestion regime;
//   - original culprits: the packets whose arrival built the queue to its
//     current level.
//
// Direct and indirect culprits are served by the time-windows structure —
// a hierarchy of ring buffers whose cell periods grow exponentially, so an
// arbitrary query interval (nanoseconds to seconds old) can be estimated
// from fixed register space. Original culprits are served by the queue
// monitor, a sparse stack indexed by queue depth.
//
// The package bundles the switch substrate the hardware prototype ran on —
// a nanosecond-resolution egress-queue simulator standing in for the Tofino
// traffic manager — plus workload generators for the paper's traces, so the
// whole system runs on a laptop:
//
//	sw, _ := printqueue.NewSwitch(printqueue.SwitchConfig{Ports: 1, LinkBps: 10e9, BufferCells: 40000})
//	pq, _ := printqueue.New(printqueue.DefaultConfig(0))
//	pq.Attach(sw)
//	for _, pkt := range packets {
//		sw.Inject(pkt)
//	}
//	sw.Flush()
//	pq.Finalize(sw.Now())
//	report, _ := pq.QueryInterval(0, victimEnq, victimDeq)
//
// See examples/ for complete programs and DESIGN.md for the mapping between
// the paper's sections and this module's packages.
package printqueue

import (
	"fmt"
	"sort"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

// FlowID is a 5-tuple flow identity.
type FlowID struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8 // IP protocol number (6 = TCP, 17 = UDP)
}

func (f FlowID) internal() flow.Key {
	return flow.Key{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: flow.Proto(f.Proto)}
}

func fromInternal(k flow.Key) FlowID {
	return FlowID{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: uint8(k.Proto)}
}

// String renders the flow as "src:sport>dst:dport/proto".
func (f FlowID) String() string { return f.internal().String() }

// ParseFlowID parses the format produced by String.
func ParseFlowID(s string) (FlowID, error) {
	k, err := flow.ParseKey(s)
	if err != nil {
		return FlowID{}, err
	}
	return fromInternal(k), nil
}

// TimeWindowConfig parameterizes the time-windows structure (§4 of the
// paper).
type TimeWindowConfig struct {
	// M0 is log2 of window 0's cell period in nanoseconds. Pick
	// floor(log2(MinPktTxDelay)) — see M0For.
	M0 uint
	// K is log2 of the cells per window (typical: 12, i.e. 4096 cells).
	K uint
	// Alpha is the per-window compression exponent: window i's cell period
	// is 2^(M0 + Alpha*i) ns.
	Alpha uint
	// T is the number of windows.
	T int
	// MinPktTxDelay is the transmission delay of the workload's smallest
	// packet at line rate; it seeds the count-recovery coefficients.
	MinPktTxDelay time.Duration
}

// M0For returns the recommended M0 for a minimum-packet transmission delay.
func M0For(minPktTxDelay time.Duration) uint {
	return timewindow.M0ForDelay(float64(minPktTxDelay.Nanoseconds()))
}

func (c TimeWindowConfig) internal() timewindow.Config {
	return timewindow.Config{
		M0:              c.M0,
		K:               c.K,
		Alpha:           c.Alpha,
		T:               c.T,
		MinPktTxDelayNs: float64(c.MinPktTxDelay.Nanoseconds()),
	}
}

// SetPeriod returns the timespan one full window set covers; the control
// plane polls at least once per set period.
func (c TimeWindowConfig) SetPeriod() time.Duration {
	return time.Duration(c.internal().SetPeriod())
}

// QueueMonitorConfig parameterizes the queue monitor (§5).
type QueueMonitorConfig struct {
	// MaxDepthCells is the deepest queue level tracked, in 80-byte cells.
	MaxDepthCells int
	// GranuleCells is the buffer-allocation granularity per monitor entry.
	GranuleCells int
}

func (c QueueMonitorConfig) internal() qmonitor.Config {
	return qmonitor.Config{MaxDepthCells: c.MaxDepthCells, GranuleCells: c.GranuleCells}
}

// Config configures a PrintQueue deployment on one switch.
type Config struct {
	TimeWindows  TimeWindowConfig
	QueueMonitor QueueMonitorConfig
	// Ports lists the egress ports to activate PrintQueue on.
	Ports []int
	// QueuesPerPort is the number of priority classes the queue monitor
	// tracks per port (default 1).
	QueuesPerPort int
	// PollPeriod overrides the periodic checkpoint cadence (default: the
	// time windows' set period).
	PollPeriod time.Duration
	// ReadRateEntriesPerSec models the control plane's register read
	// throughput; 0 means unlimited.
	ReadRateEntriesPerSec float64
	// DPTriggerDepthCells, when > 0, arms data-plane queries: any packet
	// whose enqueue-time queue depth is at least this many cells triggers
	// an on-demand freeze and a diagnosis of its own queuing interval.
	DPTriggerDepthCells int
	// DPTriggerDelay, when > 0, additionally triggers on packets that
	// spent at least this long in the queue ("packets with unusually high
	// queuing delay", §6.2).
	DPTriggerDelay time.Duration
	// DPTriggerProbePort, when > 0, additionally triggers on end-host
	// probe packets addressed to this destination port.
	DPTriggerProbePort uint16
	// MaxCheckpoints bounds the retained checkpoint history per port
	// (0 = unlimited).
	MaxCheckpoints int
	// History, when non-nil, enables the tiered checkpoint history: every
	// retired checkpoint is compactly encoded and appended to a durable
	// segment log, and interval queries reaching past the in-RAM history
	// (MaxCheckpoints) are answered from the log. Call Close to seal it.
	History *HistoryConfig
}

// HistoryConfig configures the durable, tiered checkpoint history.
type HistoryConfig struct {
	// Dir is the segment-log directory (created if absent). Required.
	Dir string
	// SegmentBytes is the segment rotation threshold (default 4 MiB).
	SegmentBytes int64
	// MaxBytes bounds total bytes on disk; oldest sealed segments are
	// dropped whole while over. 0 = unlimited.
	MaxBytes int64
	// MaxAge bounds retention by trace time: sealed segments entirely older
	// than MaxAge before the newest checkpoint are dropped. 0 = unlimited.
	// (Trace time, not wall time: one nanosecond of simulated traffic ages
	// history by one nanosecond.)
	MaxAge time.Duration
	// FsyncEvery fsyncs the log after every N appended checkpoints; 0
	// syncs only on segment rotation and Close.
	FsyncEvery int
	// CacheBytes budgets the decoded-checkpoint LRU that keeps repeated
	// cold queries fast (default 64 MiB).
	CacheBytes int64
}

func (h *HistoryConfig) internal() *histstore.Options {
	if h == nil {
		return nil
	}
	return &histstore.Options{
		Dir:          h.Dir,
		SegmentBytes: h.SegmentBytes,
		MaxBytes:     h.MaxBytes,
		MaxAgeNs:     uint64(h.MaxAge.Nanoseconds()),
		FsyncEvery:   h.FsyncEvery,
		CacheBytes:   h.CacheBytes,
	}
}

// HistoryStats summarizes the durable history store.
type HistoryStats struct {
	Segments         int   // segment files on disk
	BytesOnDisk      int64 // total log bytes
	CacheBytes       int64 // resident bytes of the decoded-checkpoint LRU
	Appended         int64 // checkpoints appended
	AppendErrors     int64 // appends that failed (encode or I/O)
	EncodedBytes     int64 // encoded payload bytes appended
	RawBytes         int64 // in-memory bytes of the same checkpoints
	CacheHits        int64 // cold queries served from the LRU
	CacheMisses      int64 // cold queries that decoded from disk
	PrunedSegments   int64 // sealed segments dropped by retention
	RecoveredRecords int   // records recovered from unsealed segments at open
	TruncatedBytes   int64 // torn-tail bytes truncated at open
}

// CompressionRatio returns in-memory bytes per encoded byte for the
// checkpoints appended so far (0 until something is appended).
func (h HistoryStats) CompressionRatio() float64 {
	if h.EncodedBytes == 0 {
		return 0
	}
	return float64(h.RawBytes) / float64(h.EncodedBytes)
}

// DefaultConfig returns the paper's UW-trace configuration (m0=6, k=12,
// alpha=2, T=4 at 10 Gbps) activated on the given ports.
func DefaultConfig(ports ...int) Config {
	if len(ports) == 0 {
		ports = []int{0}
	}
	return Config{
		TimeWindows: TimeWindowConfig{
			M0: 6, K: 12, Alpha: 2, T: 4,
			MinPktTxDelay: 80 * time.Nanosecond,
		},
		QueueMonitor: QueueMonitorConfig{MaxDepthCells: 32768, GranuleCells: 2},
		Ports:        ports,
	}
}

// Culprit is one flow's contribution to a diagnosis: its identity and the
// (estimated) number of culprit packets.
type Culprit struct {
	Flow    FlowID
	Packets float64
}

// Report is a ranked list of culprits, largest contribution first.
type Report []Culprit

// Total returns the cumulative packet estimate of the report.
func (r Report) Total() float64 {
	var t float64
	for _, c := range r {
		t += c.Packets
	}
	return t
}

// Find returns the packet estimate for one flow (0 if absent).
func (r Report) Find(f FlowID) float64 {
	for _, c := range r {
		if c.Flow == f {
			return c.Packets
		}
	}
	return 0
}

func reportFromCounts(c flow.Counts) Report {
	entries := c.TopK(0)
	out := make(Report, len(entries))
	for i, e := range entries {
		out[i] = Culprit{Flow: fromInternal(e.Flow), Packets: e.Count}
	}
	return out
}

// DataPlaneQuery is the outcome of one data-plane-triggered diagnosis: the
// victim packet's identity, its queuing interval, and the culprit report
// computed from the specially frozen registers.
type DataPlaneQuery struct {
	Port        int
	Queue       int
	Victim      FlowID
	EnqTime     uint64
	DeqTime     uint64
	DepthCells  int
	Culprits    Report
	FreezeTime  uint64
	ReadLatency time.Duration
	// Err is set, and Culprits left empty, when the victim's interval reached
	// into a History log written under other TimeWindows.
	Err error
}

// Stats summarizes control-plane activity. InfeasibleFlips counts periodic
// reads that the configured read rate could not finish within the poll
// period (Fig. 13's data-exchange limit): 0 without a read rate, and the
// same on every run of a trace. A host snapshotter falling behind is counted
// apart, in printqueue_snapshot_stalls_total.
type Stats struct {
	Checkpoints     int
	SpecialFreezes  int
	EntriesRead     int64
	InfeasibleFlips int
	DPSuppressed    int
	PacketsObserved int64
}

// System is a per-switch PrintQueue instance.
type System struct {
	inner *control.System
}

// New validates the configuration and builds a System.
func New(cfg Config) (*System, error) {
	inner, err := control.New(control.Config{
		TW:                    cfg.TimeWindows.internal(),
		QM:                    cfg.QueueMonitor.internal(),
		Ports:                 cfg.Ports,
		QueuesPerPort:         cfg.QueuesPerPort,
		PollPeriodNs:          uint64(cfg.PollPeriod.Nanoseconds()),
		ReadRateEntriesPerSec: cfg.ReadRateEntriesPerSec,
		MaxCheckpoints:        cfg.MaxCheckpoints,
		DPTrigger:             cfg.dpTrigger(),
		History:               cfg.History.internal(),
	})
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// dpTrigger assembles the configured data-plane query triggers (any-of).
func (cfg Config) dpTrigger() control.Trigger {
	var triggers []control.Trigger
	if cfg.DPTriggerDepthCells > 0 {
		triggers = append(triggers, control.DepthTrigger(cfg.DPTriggerDepthCells))
	}
	if cfg.DPTriggerDelay > 0 {
		triggers = append(triggers, control.DelayTrigger(uint64(cfg.DPTriggerDelay.Nanoseconds())))
	}
	if cfg.DPTriggerProbePort > 0 {
		triggers = append(triggers, control.ProbeTrigger(cfg.DPTriggerProbePort))
	}
	if len(triggers) == 0 {
		return nil
	}
	return control.AnyTrigger(triggers...)
}

// Attach hooks the system into every activated port of a simulated switch.
func (s *System) Attach(sw *Switch) {
	for _, port := range s.inner.Config().Ports {
		if port < sw.inner.Ports() {
			sw.inner.Port(port).AddEgressHook(egressAdapter{s.inner})
		}
	}
}

type egressAdapter struct{ sys *control.System }

func (a egressAdapter) OnDequeue(p *pktrec.Packet) { a.sys.OnDequeue(p) }

// Observe feeds one dequeued packet directly (for callers embedding
// PrintQueue in their own pipeline instead of using Switch). Packets must
// arrive in dequeue order per port.
func (s *System) Observe(p Packet, enqTime, deqTime uint64, enqDepthCells int) {
	// Clamp to zero rather than letting deqTime < enqTime (clock skew,
	// caller bugs) wrap the unsigned delta to ~2^64 and misfile the packet.
	var delta uint64
	if deqTime > enqTime {
		delta = deqTime - enqTime
	}
	rec := &pktrec.Packet{
		Flow:    p.Flow.internal(),
		Bytes:   p.Bytes,
		Arrival: p.Arrival,
		Port:    p.Port,
		Queue:   p.Queue,
		Meta: pktrec.Metadata{
			EnqTimestamp: enqTime,
			DeqTimedelta: delta,
			EnqQdepth:    enqDepthCells,
		},
	}
	s.inner.OnDequeue(rec)
}

// Finalize checkpoints every activated port's live registers at the given
// time so subsequent queries can reach the most recent traffic.
func (s *System) Finalize(now uint64) { s.inner.Finalize(now) }

// QueryInterval estimates the per-flow packet counts dequeued on a port
// during [start, end) — the asynchronous query of §6.3. Query a victim's
// [enqueue, dequeue) for its direct culprits, or [regime start, enqueue)
// for its indirect culprits.
func (s *System) QueryInterval(port int, start, end uint64) (Report, error) {
	counts, err := s.inner.QueryInterval(port, start, end)
	if err != nil {
		return nil, err
	}
	return reportFromCounts(counts), nil
}

// QueryOriginal returns the original causes of congestion on a port/queue
// at the instant closest to t, aggregated per flow.
func (s *System) QueryOriginal(port, queue int, t uint64) (Report, error) {
	counts, err := s.inner.QueryOriginal(port, queue, t)
	if err != nil {
		return nil, err
	}
	return reportFromCounts(counts), nil
}

// OriginalLevels returns the original culprits with their queue levels, for
// callers that want the raw staircase rather than per-flow aggregates.
func (s *System) OriginalLevels(port, queue int, t uint64) ([]OriginalCulprit, error) {
	culprits, err := s.inner.OriginalLevels(port, queue, t)
	if err != nil {
		return nil, err
	}
	out := make([]OriginalCulprit, len(culprits))
	for i, c := range culprits {
		out[i] = OriginalCulprit{Flow: fromInternal(c.Flow), Level: c.Level}
	}
	return out, nil
}

// OriginalCulprit is one entry of the queue-monitor staircase.
type OriginalCulprit struct {
	Flow  FlowID
	Level int // queue level (in granules) this packet raised the queue to
}

// DataPlaneQueries returns the data-plane-triggered diagnoses executed on a
// port so far, oldest first.
func (s *System) DataPlaneQueries(port int) []DataPlaneQuery {
	var out []DataPlaneQuery
	for _, dq := range s.inner.DPQueries(port) {
		out = append(out, DataPlaneQuery{
			Port:        dq.Port,
			Queue:       dq.Queue,
			Victim:      fromInternal(dq.Victim),
			EnqTime:     dq.EnqTS,
			DeqTime:     dq.DeqTS,
			DepthCells:  dq.EnqQdepth,
			Culprits:    reportFromCounts(dq.Result),
			FreezeTime:  dq.FreezeTime,
			ReadLatency: time.Duration(dq.ReadLatency),
			Err:         dq.Err,
		})
	}
	return out
}

// HistoryStats returns the durable history store's statistics; ok is false
// when Config.History is not set.
func (s *System) HistoryStats() (HistoryStats, bool) {
	st, ok := s.inner.HistoryStats()
	if !ok {
		return HistoryStats{}, false
	}
	return HistoryStats{
		Segments:         st.Segments,
		BytesOnDisk:      st.BytesOnDisk,
		CacheBytes:       st.CacheBytes,
		Appended:         st.Appended,
		AppendErrors:     st.AppendErrors,
		EncodedBytes:     st.EncodedBytes,
		RawBytes:         st.RawBytes,
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		PrunedSegments:   st.PrunedSegments,
		RecoveredRecords: st.RecoveredRecords,
		TruncatedBytes:   st.TruncatedBytes,
	}, true
}

// Close seals and closes the durable history log (a no-op without one).
// The in-RAM system remains queryable afterwards; close any Pipeline first.
func (s *System) Close() error { return s.inner.Close() }

// Stats returns control-plane counters.
func (s *System) Stats() Stats {
	st := s.inner.Stats()
	return Stats{
		Checkpoints:     st.Checkpoints,
		SpecialFreezes:  st.SpecialFreezes,
		EntriesRead:     st.EntriesRead,
		InfeasibleFlips: st.InfeasibleFlips,
		DPSuppressed:    st.DPSuppressed,
		PacketsObserved: st.PacketsObserved,
	}
}

// SortCulprits ranks a slice of culprits in place, largest first with
// deterministic tie-breaking on the raw flow fields (no per-comparison
// string rendering).
func SortCulprits(cs []Culprit) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Packets != cs[j].Packets {
			return cs[i].Packets > cs[j].Packets
		}
		return cs[i].Flow.internal().Compare(cs[j].Flow.internal()) < 0
	})
}

// Validate checks a Config without building a System.
func (cfg Config) Validate() error {
	if err := cfg.TimeWindows.internal().Validate(); err != nil {
		return err
	}
	if err := cfg.QueueMonitor.internal().Validate(); err != nil {
		return err
	}
	if len(cfg.Ports) == 0 {
		return fmt.Errorf("printqueue: no ports configured")
	}
	return nil
}
