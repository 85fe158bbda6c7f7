package control

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

func fkey(n byte) flow.Key {
	return flow.Key{SrcIP: [4]byte{10, 0, 0, n}, DstIP: [4]byte{10, 0, 1, 1}, SrcPort: 5, DstPort: 80, Proto: flow.ProtoTCP}
}

func testConfig(ports ...int) Config {
	return Config{
		TW:    timewindow.Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10},
		QM:    qmonitor.Config{MaxDepthCells: 1024, GranuleCells: 4},
		Ports: ports,
	}
}

// deq builds a dequeued-packet record.
func deq(f flow.Key, port int, enq, deq uint64, depth int) *pktrec.Packet {
	return &pktrec.Packet{
		Flow: f,
		Port: port,
		Meta: pktrec.Metadata{EnqTimestamp: enq, DeqTimedelta: deq - enq, EnqQdepth: depth},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(testConfig()); err == nil {
		t.Error("no ports accepted")
	}
	if _, err := New(testConfig(1, 1)); err == nil {
		t.Error("duplicate port accepted")
	}
	if _, err := New(testConfig(-1)); err == nil {
		t.Error("negative port accepted")
	}
	cfg := testConfig(0)
	cfg.TW.T = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad TW config accepted")
	}
	cfg = testConfig(0)
	cfg.QM.GranuleCells = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad QM config accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Config()
	if got.QueuesPerPort != 1 {
		t.Errorf("QueuesPerPort = %d, want 1", got.QueuesPerPort)
	}
	if got.PollPeriodNs != got.TW.SetPeriod() {
		t.Errorf("PollPeriodNs = %d, want set period %d", got.PollPeriodNs, got.TW.SetPeriod())
	}
}

func TestIgnoresInactivePorts(t *testing.T) {
	s, _ := New(testConfig(0))
	s.OnDequeue(deq(fkey(1), 7, 10, 20, 4))
	if s.Stats().PacketsObserved != 0 {
		t.Fatal("packet for inactive port observed")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	s, _ := New(testConfig(0))
	// A short burst, all within window 0 (cell period 8 ns).
	var ts uint64 = 1000
	for i := 0; i < 40; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%4)), 0, ts-100, ts, 40-i))
	}
	s.Finalize(ts + 1)
	counts, err := s.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := counts.Total(); got < 35 || got > 45 {
		t.Fatalf("recovered %v packets, want ~40", got)
	}
	for i := 0; i < 4; i++ {
		if n := counts[fkey(byte(i))]; n < 8 || n > 12 {
			t.Fatalf("flow %d count %v, want ~10", i, n)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := New(testConfig(0))
	if _, err := s.QueryInterval(9, 0, 10); err == nil {
		t.Error("unknown port accepted")
	}
	if _, err := s.QueryInterval(0, 10, 10); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := s.QueryOriginal(9, 0, 10); err == nil {
		t.Error("unknown port accepted for original query")
	}
	if _, err := s.QueryOriginal(0, 5, 10); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if _, err := s.QueryOriginal(0, 0, 10); err == nil {
		t.Error("original query without checkpoints succeeded")
	}
}

func TestPeriodicFlips(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 1000
	s, _ := New(cfg)
	var ts uint64 = 100
	for i := 0; i < 100; i++ {
		ts += 50
		s.OnDequeue(deq(fkey(1), 0, ts-10, ts, 2))
	}
	// 100 packets over 5000 ns with 1000 ns polls: ~4-5 periodic flips.
	st := s.Stats()
	if st.Checkpoints < 3 || st.Checkpoints > 6 {
		t.Fatalf("checkpoints = %d, want ~4-5", st.Checkpoints)
	}
	if st.EntriesRead == 0 {
		t.Fatal("no read cost accounted")
	}
	// Coverage must chain: each checkpoint's PrevFreeze equals the
	// previous checkpoint's FreezeTime.
	cps := s.Checkpoints(0)
	for i := 1; i < len(cps); i++ {
		if cps[i].PrevFreeze != cps[i-1].FreezeTime {
			t.Fatalf("coverage gap: checkpoint %d prev %d != %d",
				i, cps[i].PrevFreeze, cps[i-1].FreezeTime)
		}
	}
}

// TestQueryAcrossFlips checks that an interval spanning multiple register
// sets aggregates across checkpoints without double counting.
func TestQueryAcrossFlips(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 500
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 200; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%2)), 0, ts-50, ts, 4))
	}
	s.Finalize(ts + 1)
	counts, err := s.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := counts.Total(); got < 180 || got > 220 {
		t.Fatalf("recovered %v packets across flips, want ~200", got)
	}
}

func TestDataPlaneQuery(t *testing.T) {
	cfg := testConfig(0)
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth >= 100 }
	cfg.ReadRateEntriesPerSec = 1e6 // makes the lock meaningful
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 50; i++ {
		ts += 10
		depth := 4
		if i == 25 || i == 26 {
			depth = 200 // both trigger; the second lands in the lock window
		}
		s.OnDequeue(deq(fkey(1), 0, ts-50, ts, depth))
	}
	dqs := s.DPQueries(0)
	if len(dqs) != 1 {
		t.Fatalf("dp queries = %d, want 1 (second suppressed by lock)", len(dqs))
	}
	if s.Stats().DPSuppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", s.Stats().DPSuppressed)
	}
	dq := dqs[0]
	if dq.EnqQdepth != 200 || dq.Victim != fkey(1) {
		t.Fatalf("dq = %+v", dq)
	}
	if dq.Result.Total() == 0 {
		t.Fatal("dp query returned no culprits")
	}
	special := 0
	for _, cp := range s.Checkpoints(0) {
		if cp.Special {
			special++
			if cp.PrevFreeze != dq.PrevFreeze || cp.FreezeTime != dq.FreezeTime {
				t.Fatalf("special checkpoint covers (%d, %d], dp query (%d, %d]", cp.PrevFreeze, cp.FreezeTime, dq.PrevFreeze, dq.FreezeTime)
			}
		}
	}
	if special != 1 {
		t.Fatalf("%d special checkpoints in the history, want 1", special)
	}
	if dq.ReadLatency == 0 {
		t.Fatal("read latency not modelled")
	}
}

// TestDataPlaneQueryReleasesItsCheckpoint: a data-plane query's record
// keeps its coverage, not its special checkpoint, so the checkpoint is freed
// once the bounded history evicts it, as printqueue_history_bytes already
// counts it.
func TestDataPlaneQueryReleasesItsCheckpoint(t *testing.T) {
	cfg := testConfig(0)
	cfg.MaxCheckpoints = 2
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth >= 100 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int32
	// watch sets a finalizer on the special checkpoint the newest data-plane
	// query froze; it keeps no reference to it.
	watch := func() {
		dqs := s.DPQueries(0)
		for _, cp := range s.Checkpoints(0) {
			if cp.Special && cp.FreezeTime == dqs[len(dqs)-1].FreezeTime {
				runtime.SetFinalizer(cp, func(*Checkpoint) { freed.Add(1) })
				return
			}
		}
		t.Fatal("the data-plane query's special checkpoint is not in the history")
	}
	const triggers = 10
	var ts uint64 = 1000
	for k := 0; k < triggers; k++ {
		for i := 0; i < 40; i++ {
			ts += 10
			s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-50, ts, 4))
		}
		ts += 10
		s.OnDequeue(deq(fkey(1), 0, ts-50, ts, 200))
		watch()
	}
	if n := len(s.DPQueries(0)); n != triggers {
		t.Fatalf("%d data-plane queries, want %d", n, triggers)
	}
	retained := 0
	for _, cp := range s.Checkpoints(0) {
		if cp.Special {
			retained++
		}
	}
	want := int32(triggers - retained)
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of %d special checkpoints freed, want all but the %d the history retains", got, triggers, retained)
	}
	runtime.KeepAlive(s)
}

func TestInfeasibleFlipAccounting(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 100
	cfg.ReadRateEntriesPerSec = 1 // absurdly slow reads
	s, _ := New(cfg)
	var ts uint64 = 10
	for i := 0; i < 50; i++ {
		ts += 50
		s.OnDequeue(deq(fkey(1), 0, ts-10, ts, 2))
	}
	if s.Stats().InfeasibleFlips == 0 {
		t.Fatal("infeasible polling not detected")
	}
}

func TestPortIsolation(t *testing.T) {
	s, _ := New(testConfig(0, 1))
	var ts uint64 = 1000
	for i := 0; i < 30; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(1), 0, ts-50, ts, 4))
		s.OnDequeue(deq(fkey(2), 1, ts-50, ts, 4))
	}
	s.Finalize(ts + 1)
	c0, err := s.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.QueryInterval(1, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	if c0[fkey(2)] != 0 || c1[fkey(1)] != 0 {
		t.Fatalf("ports leaked: port0=%v port1=%v", c0, c1)
	}
	if c0[fkey(1)] == 0 || c1[fkey(2)] == 0 {
		t.Fatalf("ports lost their own flows: port0=%v port1=%v", c0, c1)
	}
}

func TestQueryOriginalAcrossFlips(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 200
	s, _ := New(cfg)
	var ts uint64 = 100
	// Build the queue monotonically with distinct flows across several
	// poll periods; the staircase spans register sets.
	for i := 0; i < 40; i++ {
		ts += 25
		s.OnDequeue(deq(fkey(byte(i)), 0, ts-10, ts, (i+1)*4))
	}
	s.Finalize(ts + 1)
	culprits, err := s.OriginalLevels(0, 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(culprits) < 35 {
		t.Fatalf("merged staircase has %d culprits, want ~40 (flip lost history?)", len(culprits))
	}
}

func TestMaxCheckpoints(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 100
	cfg.MaxCheckpoints = 3
	s, _ := New(cfg)
	var ts uint64 = 10
	for i := 0; i < 200; i++ {
		ts += 50
		s.OnDequeue(deq(fkey(1), 0, ts-10, ts, 2))
	}
	if got := len(s.Checkpoints(0)); got > 3 {
		t.Fatalf("retained %d checkpoints, cap 3", got)
	}
}

func TestNearestCheckpoint(t *testing.T) {
	var ring cpRing
	for _, f := range []uint64{100, 200, 400} {
		ring.push(&Checkpoint{FreezeTime: f}, 0)
	}
	tests := []struct {
		t    uint64
		want int
	}{
		{0, 0}, {100, 0}, {149, 0}, {151, 1}, {299, 1}, {301, 2}, {1000, 2},
	}
	for _, tt := range tests {
		if got := ring.nearest(tt.t); got != tt.want {
			t.Errorf("nearest(%d) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestSetSelRotation(t *testing.T) {
	s := setSel{}
	if s.index() != 0 {
		t.Fatal("zero selector index != 0")
	}
	if s.toggleFlip().index() != 1 || s.toggleDP().index() != 2 {
		t.Fatal("selector bit positions wrong")
	}
	if s.toggleDP().toggleFlip().index() != 3 {
		t.Fatal("combined selector wrong")
	}
	if s.toggleFlip().toggleFlip() != s {
		t.Fatal("toggleFlip not an involution")
	}
}

// TestLateTimestampDoesNotFlip: one dequeue stamped before its port's last
// flip must not take a freeze. The flip test subtracts unsigned timestamps,
// so the late packet used to wrap it, retire a checkpoint with FreezeTime
// below PrevFreeze and then one overlapping its predecessor — (13000,14000]
// (14000,13950] (13950,15000] — and the coverage search and the log's
// disjoint-coverage invariant were gone without a sign. The late packet here
// also matches the data-plane trigger, which would freeze at its timestamp
// just the same. Serial and pipelined, the history must stay strictly
// ascending and chained, the regression must be counted once, the packet must
// still be observed (it goes to the active set, whose coverage starts after
// it, so no interval query will count it), and the checkpoints must be those
// of a twin fed the same trace without it.
func TestLateTimestampDoesNotFlip(t *testing.T) {
	mk := func() *System {
		cfg := testConfig(0)
		cfg.PollPeriodNs = 1000
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth == 777 }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var inOrder, withLate []*pktrec.Packet
	for ts := uint64(10000); ts <= 14900; ts += 100 {
		inOrder = append(inOrder, deq(fkey(byte(ts/100%7)), 0, ts-50, ts, 8))
	}
	withLate = append(withLate, inOrder...)
	withLate = append(withLate, deq(fkey(9), 0, 13900, 13950, 777))
	last := deq(fkey(1), 0, 14950, 15000, 8)
	inOrder, withLate = append(inOrder, last), append(withLate, last)

	feed := map[string]func(s *System, pkts []*pktrec.Packet){
		"serial": func(s *System, pkts []*pktrec.Packet) {
			for _, p := range pkts {
				s.OnDequeue(p)
			}
		},
		"pipeline": func(s *System, pkts []*pktrec.Packet) {
			pl, err := NewPipeline(s, PipelineConfig{Shards: 1, BatchSize: 4, RingDepth: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				pl.Ingest(p)
			}
			pl.Close()
		},
	}
	for name, run := range feed {
		t.Run(name, func(t *testing.T) {
			s, twin := mk(), mk()
			run(s, withLate)
			run(twin, inOrder)
			s.Finalize(15001)
			twin.Finalize(15001)

			cps, want := s.Checkpoints(0), twin.Checkpoints(0)
			if len(cps) != len(want) || len(cps) < 5 {
				t.Fatalf("%d checkpoints, the in-order twin has %d", len(cps), len(want))
			}
			for i, cp := range cps {
				if cp.FreezeTime <= cp.PrevFreeze || (i > 0 && cp.PrevFreeze != cps[i-1].FreezeTime) {
					t.Fatalf("checkpoint %d covers (%d,%d] after (%d,%d]: not ascending and chained",
						i, cp.PrevFreeze, cp.FreezeTime, cps[i-1].PrevFreeze, cps[i-1].FreezeTime)
				}
				if cp.FreezeTime != want[i].FreezeTime || cp.Special != want[i].Special {
					t.Fatalf("checkpoint %d frozen at %d (special %v), the twin's at %d (special %v)",
						i, cp.FreezeTime, cp.Special, want[i].FreezeTime, want[i].Special)
				}
			}
			if got := s.stats.tsRegressions.Load(); got != 1 {
				t.Fatalf("printqueue_timestamp_regressions_total = %d, want 1", got)
			}
			if got := twin.stats.tsRegressions.Load(); got != 0 {
				t.Fatalf("in-order twin counted %d regressions", got)
			}
			if got, want := s.Stats().PacketsObserved, int64(len(withLate)); got != want {
				t.Fatalf("observed %d packets, want %d: the late one must still be recorded", got, want)
			}
			if n := len(s.DPQueries(0)); n != 0 {
				t.Fatalf("the late packet took %d data-plane freezes", n)
			}
		})
	}
}
