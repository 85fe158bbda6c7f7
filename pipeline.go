package printqueue

import (
	"fmt"

	"printqueue/internal/core/control"
	"printqueue/internal/pktrec"
)

// PipelineConfig tunes the sharded ingestion pipeline started by
// System.StartPipeline. The zero value picks sensible defaults for the
// machine (shards capped at GOMAXPROCS and the activated port count).
type PipelineConfig struct {
	// Shards is the number of ingestion worker goroutines. Ports are
	// partitioned across shards by activation rank, so each port's packets
	// are always processed by exactly one worker, in dequeue order.
	// 0 means min(#ports, GOMAXPROCS).
	Shards int
	// BatchSize is the most packets handed to a shard per ring slot. A
	// batch also ends at a packet that takes a freeze — a periodic flip or a
	// data-plane query — so a checkpoint leaves for its shard's snapshot
	// goroutine as soon as its trigger packet is observed, whatever the
	// feed rate. 0 means 256.
	BatchSize int
	// RingDepth is the number of batches buffered per shard before Observe
	// blocks (backpressure onto the producer). 0 means 8.
	RingDepth int
}

// Pipeline ingests dequeued packets through sharded worker goroutines so
// multi-port workloads scale with cores, and moves checkpoint register
// copies off the packet path onto a snapshot goroutine per shard — the
// software analogue of the paper's per-pipe packet processing and
// double-buffered frozen reads (§6), which the control plane takes of
// different pipes in parallel.
//
// Observe, Flush and Close must be called from a single goroutine, Observe
// with packets in per-port dequeue order. Queries and Stats on the owning
// System remain safe to call concurrently while the pipeline runs; Finalize
// and new pipelines must wait until Close returns.
type Pipeline struct {
	inner *control.Pipeline
	sys   *System
}

// StartPipeline switches the system from synchronous ingestion to the
// sharded pipeline. While the pipeline is open the system must be fed only
// through it (not via Observe/Attach on the System itself); a second
// concurrent pipeline is rejected. Close the pipeline to flush, drain, and
// return the system to synchronous mode.
func (s *System) StartPipeline(cfg PipelineConfig) (*Pipeline, error) {
	inner, err := control.NewPipeline(s.inner, control.PipelineConfig{
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		RingDepth: cfg.RingDepth,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{inner: inner, sys: s}, nil
}

// Observe feeds one dequeued packet to its port's shard. It mirrors
// System.Observe but returns once the packet is buffered. The packet's
// decisions are taken here, on the caller: whether its port flips, whether
// it is late, and whether it fires a data-plane query (the configured
// DPTrigger conditions are evaluated here). A packet that flips or fires
// ends its batch, which goes to the shard at once; inserting the packets
// into the registers, and the freeze and query, happen on the shard worker.
func (p *Pipeline) Observe(pkt Packet, enqTime, deqTime uint64, enqDepthCells int) {
	rec := pktrec.Packet{
		Flow:    pkt.Flow.internal(),
		Bytes:   pkt.Bytes,
		Arrival: pkt.Arrival,
		Port:    pkt.Port,
		Queue:   pkt.Queue,
		Meta: pktrec.Metadata{
			EnqTimestamp: enqTime,
			DeqTimedelta: deqTime - enqTime,
			EnqQdepth:    enqDepthCells,
		},
	}
	p.inner.Ingest(&rec)
}

// Attach registers the pipeline as the egress hook on every activated port
// of the switch, replacing the direct System.Attach wiring: dequeued packets
// flow through the shard rings instead of being processed inline on the
// switch's dequeue path. If any activated port does not exist on the
// switch, no hooks are installed and the error names every missing port —
// silently monitoring only a subset would corrupt any diagnosis that
// assumed full coverage.
//
// The hooks stay on the switch after Close. Packets the switch forwards then
// are refused and counted (printqueue_pipeline_ingest_after_close_total,
// /debug/pipeline), not silently dropped: stop the switch, or attach the
// System, before relying on what it observes next.
func (p *Pipeline) Attach(sw *Switch) error {
	ports := p.sys.inner.Config().Ports
	var missing []int
	for _, port := range ports {
		if port >= sw.inner.Ports() {
			missing = append(missing, port)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("printqueue: activated ports %v not present on switch (switch has ports 0-%d)",
			missing, sw.inner.Ports()-1)
	}
	for _, port := range ports {
		sw.inner.Port(port).AddEgressHook(pipelineAdapter{p.inner})
	}
	return nil
}

type pipelineAdapter struct{ pl *control.Pipeline }

func (a pipelineAdapter) OnDequeue(pkt *pktrec.Packet) { a.pl.Ingest(pkt) }

// Flush pushes partially filled batches to the workers without waiting for
// them to be processed. Call it before issuing queries mid-run if the most
// recent packets must be visible.
func (p *Pipeline) Flush() { p.inner.Flush() }

// Close flushes remaining batches, drains the shard workers and their
// snapshot goroutines, and returns the System to synchronous
// ingestion. Every packet observed before Close is reflected in subsequent
// queries; one observed after it — through Observe or a hook Attach
// installed — is refused and counted in
// printqueue_pipeline_ingest_after_close_total. Close is idempotent.
func (p *Pipeline) Close() { p.inner.Close() }
