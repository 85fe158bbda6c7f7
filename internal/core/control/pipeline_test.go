package control

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"printqueue/internal/core/histstore"
	"printqueue/internal/pktrec"
)

// genMultiPortTrace produces a deterministic multi-port stream in per-port
// dequeue order (globally interleaved), with enough depth variation to
// exercise the queue monitor and the DP trigger.
func genMultiPortTrace(ports []int, queues, n int, seed uint64) []*pktrec.Packet {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
	ts := make(map[int]uint64, len(ports))
	for _, p := range ports {
		ts[p] = 1000
	}
	out := make([]*pktrec.Packet, 0, n)
	for i := 0; i < n; i++ {
		port := ports[rng.IntN(len(ports))]
		ts[port] += uint64(5 + rng.IntN(40))
		deq := ts[port]
		delta := uint64(10 + rng.IntN(200))
		out = append(out, &pktrec.Packet{
			Flow:  fkey(byte(rng.IntN(12))),
			Port:  port,
			Queue: rng.IntN(queues),
			Meta: pktrec.Metadata{
				EnqTimestamp: deq - delta,
				DeqTimedelta: delta,
				EnqQdepth:    rng.IntN(300),
			},
		})
	}
	return out
}

// TestPipelineSerialEquivalence feeds the same multi-port trace through the
// sharded pipeline and through direct serial OnDequeue calls and requires
// identical QueryInterval and QueryOriginal reports per port, identical
// checkpoint chains and data-plane queries, and identical deterministic
// counters — the per-port packet counters among them, which the pipeline
// moves once per run of a port's packets in a batch: ports 0 and 5 share a
// shard and interleave in its batches, ports 1 and 9 are not activated (one
// inside the port table, one beyond it) and count nothing, and the stream
// ends mid-batch. Batches end where a packet decides a freeze, so the trace
// runs at batch sizes where no batch fills (4096), where every batch is one
// packet, and with a trigger that cuts one batch in twenty.
func TestPipelineSerialEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batch   int
		trigger int // EnqQdepth at or above which the DP trigger fires
	}{
		{"batch16", 16, 295},
		{"batch1", 1, 295},
		{"batch4096", 4096, 295},
		{"frequent-trigger", 16, 285},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testPipelineSerialEquivalence(t, tc.batch, tc.trigger)
		})
	}
}

func testPipelineSerialEquivalence(t *testing.T, batch, trigger int) {
	ports := []int{0, 2, 3, 5}
	const queues = 2
	mk := func() *System {
		cfg := testConfig(ports...)
		cfg.QueuesPerPort = queues
		cfg.PollPeriodNs = 1500
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth >= trigger }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, piped := mk(), mk()
	pl, err := NewPipeline(piped, PipelineConfig{Shards: 3, BatchSize: batch, RingDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	pkts := genMultiPortTrace([]int{0, 1, 2, 3, 5, 9}, queues, 30000, 7)
	var last uint64
	perPort := make(map[int]int64)
	for _, p := range pkts {
		serial.OnDequeue(p)
		pl.Ingest(p)
		perPort[p.Port]++
		if d := p.Meta.DeqTimestamp(); d > last {
			last = d
		}
	}
	if perPort[1] == 0 || perPort[9] == 0 || (perPort[0]+perPort[5])%16 == 0 {
		t.Fatalf("stream %v has no packet for a non-activated port or fills shard 0's last batch", perPort)
	}
	pl.Close()
	serial.Finalize(last + 1)
	piped.Finalize(last + 1)

	var activated int64
	for _, port := range ports {
		activated += perPort[port]
		if s, p := serial.ports[port].packets.Load(), piped.ports[port].packets.Load(); s != perPort[port] || p != perPort[port] {
			t.Fatalf("port %d: %d packets fed, serial counted %d, pipeline %d", port, perPort[port], s, p)
		}
	}
	if ss := serial.Stats(); ss.PacketsObserved != activated || ss.SpecialFreezes == 0 {
		t.Fatalf("PacketsObserved %d, %d fed to activated ports; %d special freezes", ss.PacketsObserved, activated, ss.SpecialFreezes)
	}
	requireSameHistory(t, serial, piped, ports)

	for _, port := range ports {
		// Full-range and sub-range interval queries must match exactly.
		for _, iv := range [][2]uint64{{1000, last + 1}, {2000, last / 2}, {last / 3, 2 * last / 3}} {
			if iv[1] <= iv[0] {
				continue
			}
			a, err := serial.QueryInterval(port, iv[0], iv[1])
			if err != nil {
				t.Fatal(err)
			}
			b, err := piped.QueryInterval(port, iv[0], iv[1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("port %d interval %v: serial %v != pipelined %v", port, iv, a, b)
			}
		}

		for q := 0; q < queues; q++ {
			for _, at := range []uint64{last / 2, last} {
				a, err := serial.OriginalLevels(port, q, at)
				if err != nil {
					t.Fatal(err)
				}
				b, err := piped.OriginalLevels(port, q, at)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("port %d queue %d original@%d: serial %v != pipelined %v",
						port, q, at, a, b)
				}
			}
		}
	}
}

// requireSameHistory fails unless two Systems fed the same packets — one
// serially, one through a Pipeline — hold the same deterministic counters
// (all of Stats, plus the late-packet count), the same checkpoint coverage
// lists, and the same data-plane queries with the same answers.
func requireSameHistory(t testing.TB, serial, piped *System, ports []int) {
	t.Helper()
	ss, sp := serial.Stats(), piped.Stats()
	if ss != sp {
		t.Fatalf("stats diverge: serial %+v pipeline %+v", ss, sp)
	}
	if a, b := serial.stats.tsRegressions.Load(), piped.stats.tsRegressions.Load(); a != b {
		t.Fatalf("serial counted %d late packets, pipeline %d", a, b)
	}
	for _, port := range ports {
		scp, pcp := serial.Checkpoints(port), piped.Checkpoints(port)
		if len(scp) != len(pcp) {
			t.Fatalf("port %d: %d serial checkpoints, %d pipelined", port, len(scp), len(pcp))
		}
		for i := range scp {
			if scp[i].FreezeTime != pcp[i].FreezeTime || scp[i].PrevFreeze != pcp[i].PrevFreeze ||
				scp[i].Special != pcp[i].Special {
				t.Fatalf("port %d checkpoint %d differs: serial %+v pipelined %+v",
					port, i, scp[i], pcp[i])
			}
		}
		// Data-plane queries triggered at the same packets with the same
		// culprit reports.
		sd, pd := serial.DPQueries(port), piped.DPQueries(port)
		if len(sd) != len(pd) {
			t.Fatalf("port %d: %d serial DP queries, %d pipelined", port, len(sd), len(pd))
		}
		for i := range sd {
			a, b := *sd[i], *pd[i]
			if a.Checkpoint.PrevFreeze != b.Checkpoint.PrevFreeze || a.Checkpoint.FreezeTime != b.Checkpoint.FreezeTime {
				t.Fatalf("port %d DP query %d froze (%d, %d] serially, (%d, %d] pipelined", port, i,
					a.Checkpoint.PrevFreeze, a.Checkpoint.FreezeTime, b.Checkpoint.PrevFreeze, b.Checkpoint.FreezeTime)
			}
			a.Checkpoint, b.Checkpoint = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("port %d DP query %d differs: %+v vs %+v", port, i, a, b)
			}
		}
	}
}

// TestPipelineTrickleCheckpoint: a checkpoint leaves for the snapshotter with
// its trigger packet, not when its shard's batch fills. A port fed fewer
// packets than a batch holds, ending at a flip and then at a data-plane
// trigger, shows both freezes without a Flush, long before 255 more packets
// could reach the shard.
func TestPipelineTrickleCheckpoint(t *testing.T) {
	cfg := testConfig(0, 1)
	cfg.PollPeriodNs = 1000
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth == 99 }
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 1, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not seen within 1 s", what)
			}
		}
	}
	// Port 0 starts at 1000 and flips at 2000, the 101st packet.
	for ts := uint64(1000); ts <= 2000; ts += 10 {
		pl.Ingest(deq(fkey(byte(ts%7)), 0, ts-5, ts, 10))
	}
	await("the flip at 2000", func() bool { return len(sys.Checkpoints(0)) == 1 })
	if cp := sys.Checkpoints(0)[0]; cp.PrevFreeze != 1000 || cp.FreezeTime != 2000 || cp.Special {
		t.Fatalf("checkpoint covers (%d, %d] special=%v, want the periodic (1000, 2000]", cp.PrevFreeze, cp.FreezeTime, cp.Special)
	}
	pl.Ingest(deq(fkey(1), 0, 2000, 2010, 99))
	await("the data-plane query at 2010", func() bool { return len(sys.DPQueries(0)) == 1 })
	if dq := sys.DPQueries(0)[0]; dq.FreezeTime != 2010 || dq.Checkpoint.PrevFreeze != 2000 {
		t.Fatalf("data-plane query froze (%d, %d], want (2000, 2010]", dq.Checkpoint.PrevFreeze, dq.FreezeTime)
	}
}

// FuzzPipelineMatchesSerial feeds random port, timestamp (regressions
// included), queue and queue-depth sequences at a random batch size both
// ways — serially and through a Pipeline — and requires the same history
// (requireSameHistory) and the same whole-range interval answers. The first
// byte picks the batch size; every three bytes after it are one packet.
func FuzzPipelineMatchesSerial(f *testing.F) {
	f.Add([]byte{15, 0, 40, 10, 1, 40, 250, 0, 200, 20, 2, 0xf3, 30, 0, 90, 245})
	f.Add([]byte{0, 0, 100, 0, 0, 100, 0, 3, 100, 250, 3, 0xff, 250, 3, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 3*4096 {
			return
		}
		ports := []int{0, 2, 3}
		mk := func() *System {
			cfg := testConfig(ports...)
			cfg.QueuesPerPort = 2
			cfg.PollPeriodNs = 300
			cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth >= 240 }
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		serial, piped := mk(), mk()
		pl, err := NewPipeline(piped, PipelineConfig{Shards: 2, BatchSize: 1 + int(data[0]), RingDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := [5]uint64{1000, 1000, 1000, 1000, 1000}
		var last uint64
		for in := data[1:]; len(in) >= 3; in = in[3:] {
			port := int(in[0] % 5) // 1 and 4 are not activated
			if step := in[1]; step >= 0xf0 {
				ts[port] -= min(ts[port]-100, uint64(step&0x0f)*40)
			} else {
				ts[port] += uint64(step)
			}
			last = max(last, ts[port])
			p := &pktrec.Packet{
				Flow:  fkey(in[0] >> 4),
				Port:  port,
				Queue: int(in[0]>>3) & 1,
				Meta:  pktrec.Metadata{EnqTimestamp: ts[port] - 50, DeqTimedelta: 50, EnqQdepth: int(in[2])},
			}
			serial.OnDequeue(p)
			pl.Ingest(p)
		}
		pl.Close()
		serial.Finalize(last + 1)
		piped.Finalize(last + 1)
		requireSameHistory(t, serial, piped, ports)
		for _, port := range ports {
			a, errA := serial.QueryInterval(port, 0, last+2)
			b, errB := piped.QueryInterval(port, 0, last+2)
			if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("port %d whole range: serial %v (%v), pipelined %v (%v)", port, a, errA, b, errB)
			}
		}
	})
}

// TestPipelineConcurrentQueries exercises Stats and asynchronous queries
// while the pipeline is actively ingesting — the combination the atomic
// counters and checkpoint locking exist for (run under -race).
func TestPipelineConcurrentQueries(t *testing.T) {
	ports := []int{0, 1}
	cfg := testConfig(ports...)
	cfg.PollPeriodNs = 800
	cfg.MaxCheckpoints = 8
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2, BatchSize: 8, RingDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sys.Stats()
			_, _ = sys.QueryInterval(0, 1000, 1e9)
			_, _ = sys.QueryOriginal(1, 0, 5e5)
			_ = sys.Checkpoints(0)
		}
	}()
	for _, p := range genMultiPortTrace(ports, 1, 30000, 11) {
		pl.Ingest(p)
	}
	pl.Close()
	close(stop)
	wg.Wait()
	if got := sys.Stats().PacketsObserved; got != 30000 {
		t.Fatalf("observed %d packets, want 30000", got)
	}
}

// TestPipelineRejectsSecond verifies the one-pipeline-per-system guard and
// that Close returns the system to a state where a new pipeline can start.
func TestPipelineRejectsSecond(t *testing.T) {
	sys, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(sys, PipelineConfig{}); err == nil {
		t.Fatal("second pipeline accepted while the first is open")
	}
	pl.Close()
	pl.Close() // idempotent
	pl2, err := NewPipeline(sys, PipelineConfig{})
	if err != nil {
		t.Fatalf("pipeline after Close rejected: %v", err)
	}
	pl2.Close()
}

// TestBackpressureAccounting verifies that a flip targeting a register set
// whose frozen read is still in flight blocks until the read retires and
// counts one snapshot stall, not an infeasible flip: the stall is the
// host's, the read rate is unlimited.
func TestBackpressureAccounting(t *testing.T) {
	sys, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ps := sys.ports[0]
	ps.markPending(1)
	done := make(chan struct{})
	go func() {
		ps.waitSetFree(1, sys)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("waitSetFree returned while the read was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	ps.clearPending(1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waitSetFree did not wake after the read retired")
	}
	if got := sys.stats.snapshotStalls.Load(); got != 1 {
		t.Fatalf("snapshot stalls = %d, want 1", got)
	}
	if got := sys.Stats().InfeasibleFlips; got != 0 {
		t.Fatalf("InfeasibleFlips = %d, want 0", got)
	}
	// A free set must not block or charge anything.
	ps.waitSetFree(0, sys)
	if got := sys.stats.snapshotStalls.Load(); got != 1 {
		t.Fatalf("free set charged: snapshot stalls = %d, want 1", got)
	}
}

// TestSPSCRing checks ordered delivery, blocking backpressure, and close
// semantics of the batch ring.
func TestSPSCRing(t *testing.T) {
	r := newSPSCRing(4)
	const n = 5000
	var got []int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			b, ok := r.pop()
			if !ok {
				return
			}
			got = append(got, int(b.pkts[0].Arrival))
		}
	}()
	for i := 0; i < n; i++ {
		b := &packetBatch{pkts: []pktrec.Packet{{Arrival: uint64(i)}}}
		if _, ok := r.push(b); !ok {
			t.Fatal("push failed on open ring")
		}
	}
	r.close()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumer saw %d batches, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("batch %d out of order: got %d", i, v)
		}
	}
	if _, ok := r.push(&packetBatch{}); ok {
		t.Fatal("push succeeded on closed ring")
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop returned a batch from a drained closed ring")
	}
}

// TestSPSCRingDepthRounding documents the power-of-two sizing.
func TestSPSCRingDepthRounding(t *testing.T) {
	for _, tt := range []struct{ depth, want int }{{1, 1}, {3, 4}, {4, 4}, {5, 8}} {
		if got := len(newSPSCRing(tt.depth).buf); got != tt.want {
			t.Errorf("depth %d: ring size %d, want %d", tt.depth, got, tt.want)
		}
	}
}

// TestPipelineShardAssignment confirms every activated port maps to exactly
// one shard and inactive ports are dropped.
func TestPipelineShardAssignment(t *testing.T) {
	ports := []int{0, 1, 2, 3, 4}
	sys, err := New(testConfig(ports...))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if len(pl.shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(pl.shards))
	}
	seen := map[*shard]int{}
	for _, port := range ports {
		sh := pl.shardOf[port]
		if sh == nil {
			t.Fatalf("port %d unassigned", port)
		}
		seen[sh]++
	}
	if len(seen) != 2 {
		t.Fatalf("ports landed on %d shards, want 2", len(seen))
	}
	// Packets for a port outside the table are ignored without panicking.
	pl.Ingest(&pktrec.Packet{Port: 99})
	pl.Ingest(&pktrec.Packet{Port: -1})
}

// TestPipelineShardDefaults verifies the Shards default never exceeds the
// port count.
func TestPipelineShardDefaults(t *testing.T) {
	var cfg PipelineConfig
	cfg.normalize(3)
	if cfg.Shards < 1 || cfg.Shards > 3 {
		t.Fatalf("default shards = %d, want in [1,3]", cfg.Shards)
	}
	if cfg.BatchSize != 256 || cfg.RingDepth != 8 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = PipelineConfig{Shards: 100}
	cfg.normalize(4)
	if cfg.Shards != 4 {
		t.Fatalf("shards clamped to %d, want 4", cfg.Shards)
	}
}

// TestPipelineIngestAfterCloseRefused: the egress hooks a pipeline installs
// outlive it, so a switch that keeps forwarding keeps calling Ingest after
// Close. Those packets reach no worker; they must be refused and counted —
// not buffered into batches nothing pops and dropped without a trace, with
// PacketsObserved the only hint.
func TestPipelineIngestAfterCloseRefused(t *testing.T) {
	sys, err := New(testConfig(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2, BatchSize: 16, RingDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Ports 0 and 2 are activated; 1 and 7 are not and count nowhere, before
	// or after.
	pkts := genMultiPortTrace([]int{0, 1, 2, 7}, 1, 4000, 3)
	fed := func(pkts []*pktrec.Packet) (n int64) {
		for _, p := range pkts {
			pl.Ingest(p)
			if p.Port == 0 || p.Port == 2 {
				n++
			}
		}
		return n
	}
	before := fed(pkts[:2000])
	pl.Close()
	after := fed(pkts[2000:])
	pl.Flush()
	pl.Close()
	if got := sys.Stats().PacketsObserved; got != before {
		t.Fatalf("PacketsObserved = %d, want the %d ingested before Close", got, before)
	}
	if got := sys.stats.ingestAfterClose.Load(); got != after || after == 0 {
		t.Fatalf("ingest-after-close counter = %d, want the %d refused", got, after)
	}
	if got := sys.Introspect().IngestAfterClose; got != after {
		t.Fatalf("Introspect().IngestAfterClose = %d, want %d", got, after)
	}
	// A new pipeline on the System ingests again; the old one still refuses.
	pl2, err := NewPipeline(sys, PipelineConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl.Ingest(&pktrec.Packet{Port: 2})
	more := int64(0)
	for _, p := range pkts[2000:] {
		pl2.Ingest(p)
		if p.Port == 0 || p.Port == 2 {
			more++
		}
	}
	pl2.Close()
	if got := sys.Stats().PacketsObserved; got != before+more {
		t.Fatalf("PacketsObserved = %d after a second pipeline, want %d", got, before+more)
	}
	if got := sys.stats.ingestAfterClose.Load(); got != after+1 {
		t.Fatalf("ingest-after-close counter = %d, want %d", got, after+1)
	}
}

// TestShardSnapshotsIndependent: each shard has a snapshotter of its own, so
// a port's frozen read never waits behind another shard's. Port 0's
// snapshotter is held in retire by a read lock on port 0's history; port 1,
// on the other shard, must still retire its checkpoint into the history and
// the log, and port 0's must follow once the lock is released. Every port
// hands its reads to its own shard's snapshotter, and to none after Close.
func TestShardSnapshotsIndependent(t *testing.T) {
	ports := []int{0, 1, 2, 3}
	cfg := testConfig(ports...)
	cfg.PollPeriodNs = 1000
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pl, err := NewPipeline(sys, PipelineConfig{Shards: 2, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if pl.shards[0].snap == nil || pl.shards[0].snap == pl.shards[1].snap {
		t.Fatal("the shards do not have a snapshotter each")
	}
	for _, port := range ports {
		if sys.ports[port].snap != pl.shardOf[port].snap {
			t.Fatalf("port %d hands its reads to another shard's snapshotter", port)
		}
	}
	if pl.shardOf[0] == pl.shardOf[1] {
		t.Fatal("ports 0 and 1 share a shard")
	}
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not seen within 1 s", what)
			}
		}
	}
	logged := func(port int) (n int) {
		err := sys.hist.ReplaySince(0, func(_ []byte, p int, _, _ uint64, _ bool) error {
			if p == port {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Each port starts at 1000 and flips at 2000, its 101st packet.
	flip := func(port int) {
		for ts := uint64(1000); ts <= 2000; ts += 10 {
			pl.Ingest(deq(fkey(byte(ts%7)), port, ts-5, ts, 10))
		}
	}

	a := sys.ports[0]
	a.mu.RLock()
	held := true
	defer func() {
		if held {
			a.mu.RUnlock()
		}
	}()
	flip(0)
	flip(1)
	await("port 1's checkpoint behind port 0's stalled read", func() bool {
		return len(sys.Checkpoints(1)) == 1 && logged(1) == 1
	})
	if logged(0) != 0 {
		t.Fatal("port 0's checkpoint reached the log while its history was locked")
	}
	held = false
	a.mu.RUnlock()
	await("port 0's checkpoint once its history is unlocked", func() bool {
		return len(sys.Checkpoints(0)) == 1 && logged(0) == 1
	})

	pl.Close()
	for _, port := range ports {
		if sys.ports[port].snap != nil {
			t.Fatalf("port %d still hands its reads to a snapshotter after Close", port)
		}
	}
}

// TestPipelineLogOrder: with a snapshotter per shard, ports on different
// shards append to the log and publish to the stream concurrently. Each
// port's records must still land in freeze order — none refused by the
// store — with the serial run's bytes, and a subscriber attached before the
// feed must see each port's frames in ascending freeze order without a
// resync, at one, two and four shards.
func TestPipelineLogOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run("shards"+strconv.Itoa(shards), func(t *testing.T) {
			testPipelineLogOrder(t, shards)
		})
	}
}

func testPipelineLogOrder(t *testing.T, shards int) {
	ports := []int{0, 2, 3, 5}
	const queues = 2
	mk := func() *System {
		cfg := testConfig(ports...)
		cfg.QueuesPerPort = queues
		cfg.PollPeriodNs = 1500
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth >= 295 }
		cfg.History = &histstore.Options{Dir: t.TempDir()}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	serial, piped := mk(), mk()

	st, err := DialCheckpoints(serveStream(t, piped), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		frames []CheckpointFrame
		next   error
	)
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			f, err := st.Next()
			mu.Lock()
			if err != nil {
				next = err
				mu.Unlock()
				return
			}
			frames = append(frames, f)
			mu.Unlock()
		}
	}()

	pl, err := NewPipeline(piped, PipelineConfig{Shards: shards, BatchSize: 16, RingDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The feed retires fewer checkpoints than a subscriber's queue holds
	// (streamQueueCap), so a reader descheduled under -race cannot make the
	// server drop frames by design; a resync here is a sequence gap.
	var last uint64
	for _, p := range genMultiPortTrace(ports, queues, 8000, 13) {
		serial.OnDequeue(p)
		pl.Ingest(p)
		last = max(last, p.Meta.DeqTimestamp())
	}
	pl.Close()
	serial.Finalize(last + 1)
	piped.Finalize(last + 1)
	requireSameHistory(t, serial, piped, ports)

	stats, _ := piped.HistoryStats()
	if stats.AppendErrors != 0 {
		t.Fatalf("the store refused %d appends", stats.AppendErrors)
	}
	logOf := func(s *System) map[int][][]byte {
		recs := make(map[int][][]byte)
		last := make(map[int]uint64)
		err := s.hist.ReplaySince(0, func(payload []byte, port int, freeze, prev uint64, _ bool) error {
			if freeze <= last[port] || prev > freeze {
				return fmt.Errorf("port %d: record (%d, %d] logged after freeze %d", port, prev, freeze, last[port])
			}
			last[port] = freeze
			recs[port] = append(recs[port], append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	want, got := logOf(serial), logOf(piped)
	for _, port := range ports {
		if len(got[port]) != len(want[port]) || len(got[port]) < 2 {
			t.Fatalf("port %d: %d records logged, serial run %d", port, len(got[port]), len(want[port]))
		}
		for i := range want[port] {
			if !bytes.Equal(got[port][i], want[port][i]) {
				t.Fatalf("port %d record %d differs from the serial run's", port, i)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n, err := int64(len(frames)), next
		mu.Unlock()
		if err != nil {
			t.Fatalf("stream ended after %d of %d frames: %v", n, stats.Appended, err)
		}
		if n == stats.Appended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream delivered %d of %d frames within 5 s", n, stats.Appended)
		}
		time.Sleep(time.Millisecond)
	}
	st.Close()
	<-read
	lastFrame := make(map[int]uint64)
	for _, f := range frames {
		if f.FreezeTime <= lastFrame[f.Port] {
			t.Fatalf("port %d: frame seq %d freezes at %d, after %d", f.Port, f.Seq, f.FreezeTime, lastFrame[f.Port])
		}
		lastFrame[f.Port] = f.FreezeTime
	}
}
