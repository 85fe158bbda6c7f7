package control

import "printqueue/internal/core/histstore"

// This file builds the /debug/pipeline introspection snapshot: a JSON-able
// view of the deployment's shape (ports, shard assignment, ring state) and
// live accounting, for operators who want structure rather than the flat
// /metrics samples.

// Introspection is a point-in-time view of a System. All numbers are read
// from atomics or under the per-port history locks; it is safe to build
// while traffic flows.
type Introspection struct {
	PollPeriodNs  uint64     `json:"poll_period_ns"`
	QueuesPerPort int        `json:"queues_per_port"`
	Ports         []PortInfo `json:"ports"`
	// Pipeline is nil while the system ingests synchronously.
	Pipeline *PipelineInfo `json:"pipeline,omitempty"`
	// IngestAfterClose counts packets handed to a pipeline after its Close —
	// refused, observed by nothing. Non-zero means an egress hook outlived
	// its pipeline and the switch went on forwarding.
	IngestAfterClose int64 `json:"ingest_after_close"`
	// History is nil unless the tiered checkpoint history is enabled.
	History *HistoryInfo `json:"history,omitempty"`
	Stats   Stats        `json:"stats"`
}

// HistoryInfo is the durable history store's state plus the resident bytes
// of checkpoint history across both tiers.
type HistoryInfo struct {
	histstore.Stats
	ResidentBytes int64 `json:"resident_bytes"`
}

// PortInfo is one activated port's accounting.
type PortInfo struct {
	Port        int   `json:"port"`
	Packets     int64 `json:"packets"`
	Checkpoints int   `json:"checkpoints"`
	DPQueries   int   `json:"dp_queries"`
}

// PipelineInfo describes an open ingestion pipeline.
type PipelineInfo struct {
	Shards    int         `json:"shards"`
	BatchSize int         `json:"batch_size"`
	RingDepth int         `json:"ring_depth"`
	PerShard  []ShardInfo `json:"per_shard"`
}

// ShardInfo is one shard worker's queue state and throughput counters.
type ShardInfo struct {
	Shard             int   `json:"shard"`
	Ports             []int `json:"ports"`
	RingLen           int64 `json:"ring_len"`
	RingCap           int   `json:"ring_cap"`
	RingHighWatermark int64 `json:"ring_high_watermark"`
	Batches           int64 `json:"batches"`
	Packets           int64 `json:"packets"`
	BackpressureNs    int64 `json:"backpressure_ns"`
}

// Introspect assembles the current snapshot.
func (s *System) Introspect() Introspection {
	in := Introspection{
		PollPeriodNs:  s.cfg.PollPeriodNs,
		QueuesPerPort: s.cfg.QueuesPerPort,
		Stats:         s.Stats(),
	}
	in.IngestAfterClose = s.stats.ingestAfterClose.Load()
	for _, port := range s.cfg.Ports {
		ps := s.ports[port]
		ps.mu.RLock()
		ncp, ndq := ps.checkpoints.len(), len(ps.dpQueries)
		ps.mu.RUnlock()
		in.Ports = append(in.Ports, PortInfo{
			Port:        port,
			Packets:     ps.packets.Load(),
			Checkpoints: ncp,
			DPQueries:   ndq,
		})
	}
	if st, ok := s.HistoryStats(); ok {
		in.History = &HistoryInfo{Stats: st, ResidentBytes: s.HistoryBytes()}
	}
	if pl := s.pipe.Load(); pl != nil {
		pi := &PipelineInfo{
			Shards:    pl.cfg.Shards,
			BatchSize: pl.cfg.BatchSize,
			RingDepth: pl.cfg.RingDepth,
		}
		portsOf := make([][]int, pl.cfg.Shards)
		for rank, port := range s.cfg.Ports {
			sh := rank % pl.cfg.Shards
			portsOf[sh] = append(portsOf[sh], port)
		}
		for i, sh := range pl.shards {
			pi.PerShard = append(pi.PerShard, ShardInfo{
				Shard:             i,
				Ports:             portsOf[i],
				RingLen:           sh.ring.len(),
				RingCap:           len(sh.ring.buf),
				RingHighWatermark: sh.highWater.Load(),
				Batches:           sh.batches.Load(),
				Packets:           sh.packets.Load(),
				BackpressureNs:    sh.backpressureNs.Load(),
			})
		}
		in.Pipeline = pi
	}
	return in
}
