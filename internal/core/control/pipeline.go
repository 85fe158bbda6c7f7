package control

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// This file implements the sharded ingestion pipeline: the software
// analogue of the Tofino processing every egress port's packets in parallel
// pipeline stages (paper §6). Ports are partitioned across shard workers,
// each fed by a bounded SPSC batch ring, so aggregate throughput scales
// with cores while each port's packets are still processed by exactly one
// goroutine in dequeue order — the invariant every PrintQueue structure
// depends on. Checkpoint register copies run on a snapshot goroutine per
// shard (snapshotter), mirroring the paper's double-buffered frozen reads
// over PCIe, which a switch's control plane takes of its pipes in parallel:
// the packet path only toggles the write selector, and a port's read never
// waits behind another shard's.
//
// The per-packet decisions — flip this port now, this packet is late, fire
// a data-plane query — are taken on the producer (System.decide), the one
// goroutine that owns every port's decision state. A batch ends at a packet
// that decides a freeze and carries the decision to the worker, so the
// checkpoint reaches the snapshotter as soon as its trigger packet is fed,
// at any feed rate, rather than when its shard's batch fills.

// PipelineConfig tunes the sharded ingestion pipeline.
type PipelineConfig struct {
	// Shards is the number of ingestion worker goroutines. Ports are
	// assigned round-robin by activation rank. Default (0):
	// min(#ports, GOMAXPROCS).
	Shards int
	// BatchSize is the most packets a ring batch holds. A batch also ends
	// at a packet that decides a flip or a data-plane query. Default 256.
	BatchSize int
	// RingDepth is the number of batches buffered per shard before the
	// producer blocks. Default 8.
	RingDepth int
}

func (c *PipelineConfig) normalize(numPorts int) {
	if c.Shards <= 0 {
		c.Shards = numPorts
		if p := runtime.GOMAXPROCS(0); c.Shards > p {
			c.Shards = p
		}
	}
	if c.Shards > numPorts {
		c.Shards = numPorts
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.RingDepth <= 0 {
		c.RingDepth = 8
	}
}

// shard is one worker's input queue plus the producer-side batch being
// filled for it, its snapshotter's job queue, and the shard's telemetry
// series. The producer-side metrics (occupancy, backpressure) are updated
// per batch push, never per packet, so the Ingest hot path stays
// allocation- and contention-free.
type shard struct {
	ring *spscRing
	cur  *packetBatch
	// snap is the queue of the shard's snapshotter; every port of the shard
	// hands its frozen sets to it (portState.snap). It holds two jobs per
	// port of the shard, both periodic sets of each in flight.
	snap chan snapJob

	occupancy      *telemetry.Gauge   // ring batches queued, sampled at push/pop
	highWater      *telemetry.Gauge   // max occupancy seen
	backpressureNs *telemetry.Counter // ns the producer spent blocked on a full ring
	batches        *telemetry.Counter // batches processed by the worker
	packets        *telemetry.Counter // packets processed by the worker

	// Event-plane state, owned by the single ingestion producer. Events are
	// edge-triggered: one record per new high-watermark crossing and one per
	// backpressure episode, so a sustained stall does not flood the event
	// ring and the untriggered path adds only branch tests per batch.
	subject  string // "shard=N", precomputed so event records don't allocate it
	hwSeen   int64  // highest occupancy already reported as an event
	blocked  bool   // inside a backpressure episode (last push waited)
	hwThresh int64  // occupancy at which high-watermark events start firing
}

// Pipeline drives a System through sharded, batched ingestion. Ingest, Flush
// and Close must be called from a single goroutine, Ingest with packets in
// per-port dequeue order (the order the traffic manager emits them); the
// pipeline fans them out to the port's shard worker. Close flushes, drains
// the workers and their snapshot goroutines, and returns the System to
// synchronous (serial) mode; packets ingested after it are refused and
// counted.
type Pipeline struct {
	sys    *System
	cfg    PipelineConfig
	shards []*shard
	// shardOf maps a port id to its shard (dense, like System.portTab).
	shardOf []*shard
	pool    sync.Pool
	wg      sync.WaitGroup
	closed  bool
	flushes *telemetry.Counter
}

// NewPipeline builds and starts a pipeline over a System. The System must
// not be driven by direct OnDequeue calls (or a second pipeline) while the
// pipeline is open.
func NewPipeline(sys *System, cfg PipelineConfig) (*Pipeline, error) {
	nports := len(sys.cfg.Ports)
	cfg.normalize(nports)
	pl := &Pipeline{sys: sys, cfg: cfg}
	pl.pool.New = func() any {
		return &packetBatch{pkts: make([]pktrec.Packet, 0, cfg.BatchSize)}
	}
	reg := sys.telemetry
	pl.flushes = reg.Counter("printqueue_pipeline_flushes_total",
		"Explicit flushes of partially filled ingestion batches.")
	pl.shards = make([]*shard, cfg.Shards)
	for i := range pl.shards {
		id := telemetry.L("shard", strconv.Itoa(i))
		pl.shards[i] = &shard{
			ring: newSPSCRing(cfg.RingDepth),
			// Ranks i, i+Shards, ... land here: ceil((nports-i)/Shards).
			snap:     make(chan snapJob, 2*((nports-i+cfg.Shards-1)/cfg.Shards)),
			subject:  "shard=" + strconv.Itoa(i),
			hwThresh: int64(cfg.RingDepth+1) / 2,
			occupancy: reg.Gauge("printqueue_pipeline_shard_ring_occupancy",
				"Batches queued in the shard's ingestion ring.", id),
			highWater: reg.Gauge("printqueue_pipeline_shard_ring_high_watermark",
				"Highest ring occupancy observed since the system started.", id),
			backpressureNs: reg.Counter("printqueue_pipeline_backpressure_wait_ns_total",
				"Nanoseconds the ingestion producer spent blocked on a full shard ring.", id),
			batches: reg.Counter("printqueue_pipeline_batches_total",
				"Packet batches processed by the shard worker.", id),
			packets: reg.Counter("printqueue_pipeline_packets_total",
				"Packets processed by the shard worker.", id),
		}
	}
	if !sys.pipe.CompareAndSwap(nil, pl) {
		return nil, fmt.Errorf("control: pipeline already attached to this system")
	}
	pl.shardOf = make([]*shard, len(sys.portTab))
	for rank, port := range sys.cfg.Ports {
		sh := pl.shards[rank%cfg.Shards]
		pl.shardOf[port] = sh
		sys.portTab[port].snap = sh.snap
	}
	for _, sh := range pl.shards {
		pl.wg.Add(2)
		go pl.worker(sh)
		go pl.snapshotter(sh.snap)
	}
	sys.pipeEver.Store(true)
	return pl, nil
}

// pushBatch hands a filled batch to the shard ring and samples the
// producer-side metrics: occupancy (with its high-watermark) and any
// backpressure stall the push suffered. It also mirrors the paper's
// data-plane triggers into the event log: a backpressure event when a push
// first blocks (episode start, value = ns stalled) and a high-watermark
// event each time occupancy reaches a new maximum at or above half the
// ring depth.
func (pl *Pipeline) pushBatch(sh *shard, b *packetBatch) {
	waited, ok := sh.ring.push(b)
	if !ok {
		// The ring closed under the batch: no worker will ever pop it.
		pl.sys.stats.ingestAfterClose.Add(int64(len(b.pkts)))
		return
	}
	if waited > 0 {
		sh.backpressureNs.Add(waited)
		if !sh.blocked {
			sh.blocked = true
			pl.sys.Events().Record(tracing.EventBackpressure, sh.subject, waited, 0)
		}
	} else {
		sh.blocked = false
	}
	occ := sh.ring.len()
	sh.occupancy.Set(occ)
	sh.highWater.Max(occ)
	if occ > sh.hwSeen {
		if occ >= sh.hwThresh {
			pl.sys.Events().Record(tracing.EventRingHighWater, sh.subject, occ, 0)
		}
		sh.hwSeen = occ
	}
}

// Ingest takes one dequeued packet's decisions (System.decide: the
// DPTrigger runs here) and hands the packet to its port's shard. The packet
// is copied by value into the current batch; the caller may reuse *p. A
// packet that decides a flip or a data-plane query ends its batch, which is
// pushed at once with the decision; otherwise the batch is pushed when
// full. Packets for ports without PrintQueue are dropped, as in OnDequeue.
// After Close a packet for an activated port is refused and counted in
// printqueue_pipeline_ingest_after_close_total: the workers are gone, and an
// egress hook that outlives its pipeline (Attach's do) must not look like
// monitoring.
func (pl *Pipeline) Ingest(p *pktrec.Packet) {
	if p.Port < 0 || p.Port >= len(pl.shardOf) {
		return
	}
	sh := pl.shardOf[p.Port]
	if sh == nil {
		return
	}
	if pl.closed {
		pl.sys.stats.ingestAfterClose.Add(1)
		return
	}
	b := sh.cur
	if b == nil {
		b = pl.pool.Get().(*packetBatch)
		sh.cur = b
	}
	b.pkts = append(b.pkts, *p)
	// Decide on the batch's copy, which is on the heap already: a pointer
	// handed to the DPTrigger, a func value, escapes, and *p is the
	// caller's, often a local. The batch's cut is zero until a packet
	// decides a freeze, and then the batch ends.
	if f := pl.sys.portTab[p.Port].feed; !f.quietAt(p.Meta.DeqTimestamp()) {
		pl.sys.decide(f, &b.pkts[len(b.pkts)-1], &b.cut)
	}
	if b.cut.freezes() || len(b.pkts) == cap(b.pkts) {
		pl.pushBatch(sh, b)
		sh.cur = nil
	}
}

// Flush pushes every partially filled batch to its shard so the workers see
// all packets ingested so far. It does not wait for them to be processed.
func (pl *Pipeline) Flush() {
	pl.flushes.Inc()
	for _, sh := range pl.shards {
		if sh.cur != nil && len(sh.cur.pkts) > 0 {
			pl.pushBatch(sh, sh.cur)
			sh.cur = nil
		}
	}
}

// Close flushes remaining batches, waits for the shard workers to drain and
// each one's snapshot goroutine to retire the frozen reads it was handed,
// and returns the System to synchronous mode. After Close, Finalize and
// queries observe every packet ingested before it; later ones are refused
// (Ingest). Close is idempotent.
func (pl *Pipeline) Close() {
	if pl.closed {
		return
	}
	pl.Flush()
	pl.closed = true
	for _, sh := range pl.shards {
		sh.ring.close()
	}
	pl.wg.Wait()
	// Flips snapshot inline again.
	for _, port := range pl.sys.cfg.Ports {
		pl.sys.portTab[port].snap = nil
	}
	pl.sys.pipe.CompareAndSwap(pl, nil)
}

// worker is one shard's ingestion goroutine: it owns its ports' registers
// exclusively, so it inserts their packets, and applies the flips and DP
// queries the producer decided, in dequeue order — the serial order. It is
// the one sender to its shard's snapshotter, whose queue it closes once its
// ring has drained.
func (pl *Pipeline) worker(sh *shard) {
	defer pl.wg.Done()
	sys := pl.sys
	for {
		b, ok := sh.ring.pop()
		if !ok {
			close(sh.snap)
			return
		}
		sh.occupancy.Set(sh.ring.len())
		sys.onDequeueBatch(b.pkts, &b.cut)
		sh.batches.Inc()
		sh.packets.Add(int64(len(b.pkts)))
		b.pkts, b.cut = b.pkts[:0], decision{}
		pl.pool.Put(b)
	}
}

// snapJob is one frozen read handed to a shard's snapshotter: the register
// set of a port frozen at freezeTime, covering (prevFreeze, freezeTime].
type snapJob struct {
	ps         *portState
	sel        int
	freezeTime uint64
	prevFreeze uint64
	// frozenAt is the wall-clock instant of the flip, for the
	// freeze-to-retire latency histogram: queueing delay behind earlier
	// jobs plus the register copy itself. decidedAt is when the producer
	// decided the flip, for the ingest-to-retire one.
	frozenAt, decidedAt time.Time
}

// snapshotter is a shard's checkpoint goroutine. It consumes its shard's
// jobs FIFO, which preserves each port's checkpoint order: a port's jobs are
// enqueued by its one shard worker, in flip order, and cpRing.pruneCopy,
// cpRing.nearest and the log's per-port freeze order rely on the history
// being sorted by freeze time. Ports on different shards retire
// concurrently; histstore.Append keeps each port's log order, and the stream
// reads the log.
func (pl *Pipeline) snapshotter(jobs <-chan snapJob) {
	defer pl.wg.Done()
	sys := pl.sys
	for job := range jobs {
		cp := sys.snapshotSet(job.ps, job.sel, job.freezeTime, job.prevFreeze, false)
		// The durable-log append happens inside retireCheckpoint, before the
		// pending bit clears: a data-plane freeze that drained this read can
		// therefore never append its (newer) checkpoint ahead of this one.
		sys.retireCheckpoint(job.ps, cp)
		job.ps.clearPending(job.sel)
		sys.stats.observeRetire(job.frozenAt, job.decidedAt)
	}
}
