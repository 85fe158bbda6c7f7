package control

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/pktrec"
)

// buildDeepHistory drives a system with a long trace and a short poll
// period, producing a checkpoint history of at least minCheckpoints, and
// returns the final dequeue timestamp.
func buildDeepHistory(t *testing.T, s *System, port, minCheckpoints int) uint64 {
	t.Helper()
	var ts uint64 = 1000
	for i := 0; len(s.Checkpoints(port)) < minCheckpoints; i++ {
		ts += 8
		s.OnDequeue(deq(fkey(byte(i%24)), port, ts-16, ts, 8))
		if i > 1_000_000 {
			t.Fatal("history not growing; poll period misconfigured")
		}
	}
	s.Finalize(ts + 1)
	return ts
}

// TestQueryPathDifferential compares the interval-query engine with the
// reference scan (scanInterval) over randomized intervals on a deep
// checkpoint history. The two must be bit-identical (exact DeepEqual on
// float maps), including point and all-history intervals and ones that hold
// nothing.
func TestQueryPathDifferential(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := buildDeepHistory(t, s, 0, 64)

	rng := rand.New(rand.NewPCG(13, 37))
	for q := 0; q < 120; q++ {
		var lo, hi uint64
		switch q {
		case 0:
			lo, hi = 0, horizon+1000 // all history
		case 1:
			lo, hi = 0, 1 // before the first packet
		case 2:
			lo, hi = horizon, horizon+1 // the very last instant
		case 3:
			lo, hi = horizon/2, horizon/2+1 // point query mid-trace
		default:
			lo = rng.Uint64N(horizon)
			hi = lo + 1 + rng.Uint64N(horizon/3)
		}
		indexed, err := s.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("query [%d,%d): %v", lo, hi, err)
		}
		if scan := scanInterval(s, 0, lo, hi); !reflect.DeepEqual(indexed, scan) {
			t.Fatalf("interval [%d,%d): engine %v != scan %v", lo, hi, indexed, scan)
		}
	}
	if got := s.qpath.checkpointsPruned.Load(); got == 0 {
		t.Error("narrow queries pruned no checkpoints")
	}
}

// TestPruneCheckpoints checks the ring's coverage binary search against a
// brute-force overlap filter on synthetic histories.
func TestPruneCheckpoints(t *testing.T) {
	mk := func(freezes ...uint64) (*cpRing, []*Checkpoint) {
		var ring cpRing
		var cps []*Checkpoint
		prev := uint64(0)
		for _, f := range freezes {
			cp := &Checkpoint{FreezeTime: f, PrevFreeze: prev}
			ring.push(cp, 0)
			cps = append(cps, cp)
			prev = f
		}
		return &ring, cps
	}
	oracle := func(cps []*Checkpoint, start, end uint64) []*Checkpoint {
		var out []*Checkpoint
		for _, cp := range cps {
			// Coverage (PrevFreeze, FreezeTime] overlaps [start, end)?
			lo, hi := start, end
			if cp.PrevFreeze > lo {
				lo = cp.PrevFreeze
			}
			if cp.FreezeTime < hi {
				hi = cp.FreezeTime
			}
			if hi > lo {
				out = append(out, cp)
			}
		}
		return out
	}

	// Intervals are non-empty (end > start) — QueryInterval rejects empty
	// intervals before pruning runs.
	ring, hist := mk(100, 200, 300, 400, 500)
	cases := [][2]uint64{
		{0, 50}, {0, 100}, {0, 101}, {150, 250},
		{200, 201}, {199, 200}, {450, 600}, {500, 600}, {0, 1000},
		{99, 501}, {100, 101}, {499, 500},
	}
	for _, c := range cases {
		got := ring.pruneCopy(c[0], c[1])
		want := oracle(hist, c[0], c[1])
		if len(got) != len(want) {
			t.Fatalf("interval [%d,%d): pruned %d checkpoints, oracle %d", c[0], c[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("interval [%d,%d): run differs at %d", c[0], c[1], i)
			}
		}
	}
	if got := new(cpRing).pruneCopy(0, 100); len(got) != 0 {
		t.Fatalf("pruning empty history returned %d checkpoints", len(got))
	}

	// Randomized histories and intervals.
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 40; trial++ {
		var freezes []uint64
		f := uint64(0)
		for i := 0; i < rng.IntN(30); i++ {
			f += 1 + rng.Uint64N(100)
			freezes = append(freezes, f)
		}
		ring, h := mk(freezes...)
		for q := 0; q < 20; q++ {
			lo := rng.Uint64N(f + 100)
			hi := lo + 1 + rng.Uint64N(f/2+10)
			got := ring.pruneCopy(lo, hi)
			want := oracle(h, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("trial %d [%d,%d): pruned %d, oracle %d", trial, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d [%d,%d): run differs at %d", trial, lo, hi, i)
				}
			}
		}
	}
}

// originalTwinTrace is the build-up a bounded hot ring used to forget: on
// queue 0 the depth climbs one level per 16 packets — half a poll period, so
// each register set ends up holding every other pair of levels — falls back
// part of the way and climbs again; queue 1 moves at random. Every 131st
// packet carries the marker the twin Systems' DPTrigger fires on, so special
// freezes put the two dp sets in play as well.
func originalTwinTrace(n int) []*pktrec.Packet {
	rng := rand.New(rand.NewPCG(21, 34))
	pkts := make([]*pktrec.Packet, 0, n)
	var ts uint64 = 1000
	level := 0
	for i := 0; i < n; i++ {
		ts += 8
		p := deq(fkey(byte(i%24)), 0, ts-16, ts, 0)
		if i%131 == 130 {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = ts-twinMarker, twinMarker
		}
		if p.Queue = i % 4 / 3; p.Queue == 0 {
			if i%16 == 0 {
				if level++; level == 120 {
					level = 40
				}
			}
			p.Meta.EnqQdepth = level * 4
		} else {
			p.Meta.EnqQdepth = rng.IntN(1200)
		}
		pkts = append(pkts, p)
	}
	return pkts
}

const twinMarker = 23

// TestQueryOriginalBoundedTwin: QueryOriginal must not depend on where the
// hot ring happens to start. A System bounded to 4 checkpoints and an
// unbounded twin are fed the same trace, serially and through a Pipeline;
// at every freeze the bounded one retains (and around and beyond them) both
// must name the same culprits on every queue, and the unbounded one must
// agree with the reference qmonitor.Merge over its whole chain. Before the
// eviction carry, the bounded System answered from the retained checkpoints
// alone and lost every level last written in an evicted register set.
func TestQueryOriginalBoundedTwin(t *testing.T) {
	const queues = 2
	mk := func(max int) *System {
		cfg := testConfig(0)
		cfg.QueuesPerPort = queues
		cfg.PollPeriodNs = 256
		cfg.MaxCheckpoints = max
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta == twinMarker }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// compare checks the twins at the bounded System's retained freezes and
	// reports whether the carry mattered: whether any answer differed from
	// what the retained checkpoints alone would have given.
	compare := func(t *testing.T, bounded, unbounded *System) (carried bool) {
		t.Helper()
		kept, all := bounded.Checkpoints(0), unbounded.Checkpoints(0)
		if len(kept) == 0 {
			return false
		}
		for k, cp := range kept {
			for q := 0; q < queues; q++ {
				for _, at := range []uint64{cp.FreezeTime, cp.FreezeTime + 1, cp.FreezeTime + 100, cp.FreezeTime + 1_000_000} {
					got, err := bounded.OriginalLevels(0, q, at)
					if err != nil {
						t.Fatalf("bounded OriginalLevels(queue %d, %d): %v", q, at, err)
					}
					want, err := unbounded.OriginalLevels(0, q, at)
					if err != nil {
						t.Fatalf("unbounded OriginalLevels(queue %d, %d): %v", q, at, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("queue %d at %d: bounded System names %d culprits, unbounded twin %d",
							q, at, len(got), len(want))
					}
					counts, err := bounded.QueryOriginal(0, q, at)
					if err != nil || !reflect.DeepEqual(counts, qmonitor.FlowCounts(want)) {
						t.Fatalf("queue %d at %d: bounded QueryOriginal %v (%v), the twin's levels count %v",
							q, at, counts, err, qmonitor.FlowCounts(want))
					}
				}
				got, _ := unbounded.OriginalLevels(0, q, cp.FreezeTime)
				var chain *qmonitor.Snapshot
				for _, u := range all {
					if u.FreezeTime > cp.FreezeTime {
						break
					}
					chain = qmonitor.Merge(chain, u.QM[q])
				}
				if want := chain.OriginalCulprits(); !reflect.DeepEqual(got, want) {
					t.Fatalf("queue %d at %d: OriginalLevels %v, merge of the whole chain %v", q, cp.FreezeTime, got, want)
				}
				if k == 0 && !reflect.DeepEqual(got, cp.QM[q].OriginalCulprits()) {
					carried = true
				}
			}
		}
		return carried
	}

	pkts := originalTwinTrace(24000)
	end := pkts[len(pkts)-1].Meta.DeqTimestamp() + 1

	t.Run("serial", func(t *testing.T) {
		bounded, unbounded := mk(4), mk(0)
		carried := false
		for i, p := range pkts {
			bounded.OnDequeue(p)
			unbounded.OnDequeue(p)
			if i%997 == 0 {
				carried = compare(t, bounded, unbounded) || carried
			}
		}
		bounded.Finalize(end)
		unbounded.Finalize(end)
		carried = compare(t, bounded, unbounded) || carried
		if !carried {
			t.Fatal("the retained checkpoints alone always gave the full answer; the trace does not exercise the carry")
		}
		var sets [4]bool
		for _, cp := range unbounded.Checkpoints(0) {
			sets[cp.set] = true
		}
		if sets != [4]bool{true, true, true, true} {
			t.Fatalf("trace froze register sets %v; all four must be in play", sets)
		}
		if n := len(bounded.Checkpoints(0)); n != 4 {
			t.Fatalf("bounded System retains %d checkpoints, want 4", n)
		}
	})
	t.Run("pipeline", func(t *testing.T) {
		bounded, unbounded := mk(4), mk(0)
		plB, err := NewPipeline(bounded, PipelineConfig{Shards: 1, BatchSize: 16, RingDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		plU, err := NewPipeline(unbounded, PipelineConfig{Shards: 1, BatchSize: 16, RingDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			plB.Ingest(p)
			plU.Ingest(p)
		}
		plB.Close()
		plU.Close()
		bounded.Finalize(end)
		unbounded.Finalize(end)
		compare(t, bounded, unbounded)
	})
}

// TestQueryOriginalPrefixConcurrent hammers QueryOriginal from many
// goroutines while traffic continues and every retirement evicts (moving a
// register set's carry under the walkers), for the race detector.
func TestQueryOriginalPrefixConcurrent(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildDeepHistory(t, s, 0, cfg.MaxCheckpoints)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ts += 8
			s.OnDequeue(deq(fkey(byte(i%6)), 0, ts-16, ts, 12))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = s.QueryOriginal(0, 0, uint64(1000+i*37*(g+1)))
				_, _ = s.QueryInterval(0, uint64(i*16), uint64(i*16+512))
			}
		}(g)
	}
	wg.Wait()
}

// dpTwinTrace is a steady stream in which every 1500th packet queued for
// 4000 ns — some fifteen poll periods — and carries the delay the twin
// Systems' DPTrigger fires on. The victim's interval reaches far below a
// two-checkpoint hot ring.
func dpTwinTrace(n int) []*pktrec.Packet {
	pkts := make([]*pktrec.Packet, 0, n)
	var ts uint64 = 1000
	for i := 0; i < n; i++ {
		ts += 8
		p := deq(fkey(byte(i%24)), 0, ts-16, ts, 8)
		if i%1500 == 1499 {
			p.Meta.EnqTimestamp, p.Meta.DeqTimedelta = ts-4000, 4000
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// TestDataPlaneQueryBoundedTwin: a data-plane query is an interval query,
// so it must not depend on where the hot ring happens to start either. A
// System bounded to 2 checkpoints over a log and an unbounded twin are fed
// the same trace, serially and through a Pipeline, and must record the same
// diagnoses. The data-plane query used to fold the hot ring alone and lost
// whatever part of the victim's interval had been evicted to the log.
func TestDataPlaneQueryBoundedTwin(t *testing.T) {
	mk := func(max int) *System {
		cfg := testConfig(0)
		cfg.PollPeriodNs = 256
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta > 3000 }
		if cfg.MaxCheckpoints = max; max > 0 {
			cfg.History = &histstore.Options{Dir: t.TempDir()}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	compare := func(t *testing.T, bounded, unbounded *System) {
		t.Helper()
		got, want := bounded.DPQueries(0), unbounded.DPQueries(0)
		if len(got) != len(want) || len(got) < 4 {
			t.Fatalf("bounded System ran %d data-plane queries, unbounded twin %d, want the same 4+", len(got), len(want))
		}
		first := unbounded.Checkpoints(0)[0]
		for i := range got {
			if !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Fatalf("data-plane query %d over [%d,%d): bounded System counts %v packets, unbounded twin %v",
					i, got[i].EnqTS, got[i].DeqTS, got[i].Result.Total(), want[i].Result.Total())
			}
			if got[i].EnqTS > first.PrevFreeze && got[i].Result.Total() < 400 {
				t.Fatalf("data-plane query %d counts %v packets over 4000 ns of one packet per 8 ns", i, got[i].Result.Total())
			}
		}
	}
	pkts := dpTwinTrace(8000)

	t.Run("serial", func(t *testing.T) {
		bounded, unbounded := mk(2), mk(0)
		for _, p := range pkts {
			bounded.OnDequeue(p)
			unbounded.OnDequeue(p)
		}
		compare(t, bounded, unbounded)
	})
	t.Run("pipeline", func(t *testing.T) {
		bounded, unbounded := mk(2), mk(0)
		plB, err := NewPipeline(bounded, PipelineConfig{Shards: 1, BatchSize: 16, RingDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		plU, err := NewPipeline(unbounded, PipelineConfig{Shards: 1, BatchSize: 16, RingDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			plB.Ingest(p)
			plU.Ingest(p)
		}
		plB.Close()
		plU.Close()
		compare(t, bounded, unbounded)
	})
}

// TestDataPlaneQueryCopiesOnlyItsRun: a data-plane query copies out of the
// ring the checkpoints its interval overlaps — two here — and not the ring.
// The same victim is diagnosed on a 64-deep ring and a 4-deep one; what the
// diagnosis allocates must not depend on the depth. (It used to copy the
// whole ring, 64 pointers against 4, on the ingest goroutine.)
func TestDataPlaneQueryCopiesOnlyItsRun(t *testing.T) {
	const victimDelay = 300 // reaches one poll period back: two checkpoints
	mk := func(max int) (*System, uint64) {
		cfg := testConfig(0)
		cfg.PollPeriodNs = 256
		cfg.MaxCheckpoints = max
		cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta == victimDelay }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, buildDeepHistory(t, s, 0, max)
	}
	// diagnose feeds a poll period of traffic from 8 flows (one map bucket:
	// the accumulator allocates the same whatever the hash seed) and then
	// the victim, returning the bytes the victim's OnDequeue allocated.
	diagnose := func(s *System, ts *uint64) uint64 {
		for i := 0; i < 40; i++ {
			*ts += 8
			s.OnDequeue(deq(fkey(byte(i%8)), 0, *ts-16, *ts, 8))
		}
		*ts += 8
		victim := deq(fkey(1), 0, *ts-victimDelay, *ts, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.OnDequeue(victim)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	deep, tsDeep := mk(64)
	shallow, tsShallow := mk(4)
	// The first diagnoses still read the build-up's 24 flows; of the rest
	// take the least: a pool refilled after a collection (or, under the race
	// detector, after a dropped Put) only ever adds.
	const diagnoses, warmup = 32, 8
	minDeep, minShallow := ^uint64(0), ^uint64(0)
	for i := 0; i < diagnoses; i++ {
		d, s := diagnose(deep, &tsDeep), diagnose(shallow, &tsShallow)
		if i >= warmup {
			minDeep, minShallow = min(minDeep, d), min(minShallow, s)
		}
	}
	if n := len(deep.Checkpoints(0)); n != 64 {
		t.Fatalf("deep ring holds %d checkpoints, want 64", n)
	}
	dqs := deep.DPQueries(0)
	if len(dqs) != diagnoses {
		t.Fatalf("%d data-plane queries ran, want %d", len(dqs), diagnoses)
	}
	if run, _, _ := deep.ports[0].snapshotRun(dqs[diagnoses-1].EnqTS, dqs[diagnoses-1].DeqTS, nil); len(run) != 2 {
		t.Fatalf("the victim's interval overlaps %d checkpoints, want 2", len(run))
	}
	if minDeep > minShallow+64 {
		t.Fatalf("a diagnosis on a 64-deep ring allocates %d B, on a 4-deep ring %d B: the ring was copied", minDeep, minShallow)
	}
}

// TestFoldRefusesMixedConfig: a history log written under one window
// configuration and reopened under another is refused, not folded. With
// another T the cold cells used to index past the accumulator's windows (a
// panic on a query worker); with another Alpha they were divided by the
// wrong coefficients, silently.
func TestFoldRefusesMixedConfig(t *testing.T) {
	for name, edit := range map[string]func(*timewindow.Config){
		"T":     func(c *timewindow.Config) { c.T = 3 },
		"alpha": func(c *timewindow.Config) { c.Alpha = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := tieredConfig(t.TempDir())
			cfg.TW.T = 4
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			horizon := feedIdentical(t, []*System{s}, 4000)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			edit(&cfg.TW)
			cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.DeqTimedelta > 3000 }
			reborn, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer reborn.Close()
			if counts, err := reborn.QueryInterval(0, 0, horizon); err == nil || counts != nil {
				t.Fatalf("a log written under T=4, alpha=1 answered a System with %+v: %v packets, error %v", cfg.TW, counts.Total(), err)
			}
			// The query server replies with the same refusal.
			qs := NewQueryServer(reborn)
			qs.Start(4)
			defer qs.Stop()
			if res := qs.Interval(0, 0, horizon); res.Err == nil {
				t.Fatal("the query server answered from the mixed log")
			}
			// New traffic under the new configuration is answered; a victim
			// whose interval reaches into the old log is not.
			ts := horizon + 10_000
			for i := 0; i < 200; i++ {
				ts += 8
				reborn.OnDequeue(deq(fkey(byte(i%24)), 0, ts-16, ts, 8))
			}
			reborn.OnDequeue(deq(fkey(1), 0, horizon-100, ts+8, 8))
			reborn.Finalize(ts + 16)
			if _, err := reborn.QueryInterval(0, horizon+10_000, ts+16); err != nil {
				t.Fatalf("interval inside the new traffic: %v", err)
			}
			dqs := reborn.DPQueries(0)
			if len(dqs) != 1 || dqs[0].Err == nil || dqs[0].Result != nil {
				t.Fatalf("data-plane query into the old log: %+v", dqs)
			}
		})
	}
}
