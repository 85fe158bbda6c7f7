package control

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/timewindow"
)

// feedIdentical drives every system with the same deterministic trace
// (fresh packet records per system) and finalizes them all at the same
// instant, returning the horizon timestamp.
func feedIdentical(t testing.TB, systems []*System, packets int) uint64 {
	t.Helper()
	var ts uint64 = 1000
	for i := 0; i < packets; i++ {
		ts += 8
		for _, s := range systems {
			s.OnDequeue(deq(fkey(byte(i%24)), 0, ts-16, ts, 8+i%17))
		}
	}
	for _, s := range systems {
		s.Finalize(ts + 1)
	}
	return ts
}

// TestColdQueryDifferential is the tiering correctness pin: a system with a
// tiny hot tier backed by the segment log must answer interval queries
// bit-identically (exact DeepEqual on the float maps) to a system that kept
// every checkpoint in RAM — including intervals spanning the tier boundary,
// entirely cold intervals, and entirely hot ones.
func TestColdQueryDifferential(t *testing.T) {
	cfgA := testConfig(0)
	cfgA.PollPeriodNs = 256
	ram, err := New(cfgA) // unbounded in-RAM history: the reference
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig(0)
	cfgB.PollPeriodNs = 256
	cfgB.MaxCheckpoints = 3 // nearly everything is evicted to disk
	cfgB.History = &histstore.Options{Dir: t.TempDir()}
	tiered, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	horizon := feedIdentical(t, []*System{ram, tiered}, 12000)
	if n := len(ram.Checkpoints(0)); n < 32 {
		t.Fatalf("reference history only %d checkpoints deep, want >= 32", n)
	}
	if n := len(tiered.Checkpoints(0)); n > 3 {
		t.Fatalf("tiered hot history holds %d checkpoints, want <= 3", n)
	}
	st, ok := tiered.HistoryStats()
	if !ok || st.Appended < 32 {
		t.Fatalf("segment log holds %d checkpoints, want >= 32 (enabled=%v)", st.Appended, ok)
	}

	rng := rand.New(rand.NewPCG(7, 11))
	for q := 0; q < 150; q++ {
		var lo, hi uint64
		switch q {
		case 0:
			lo, hi = 0, horizon+1000 // all history (cold + hot + tail)
		case 1:
			lo, hi = 0, 1100 // entirely cold
		case 2:
			lo, hi = horizon-50, horizon+1 // entirely hot
		case 3:
			lo, hi = horizon/2, horizon/2+1 // point query, cold for B
		default:
			lo = rng.Uint64N(horizon)
			hi = lo + 1 + rng.Uint64N(horizon/3)
		}
		want, err := ram.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("ram query [%d,%d): %v", lo, hi, err)
		}
		got, err := tiered.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("tiered query [%d,%d): %v", lo, hi, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("interval [%d,%d): tiered %v != ram %v", lo, hi, got, want)
		}
	}
	st, _ = tiered.HistoryStats()
	if st.CacheHits+st.CacheMisses == 0 {
		t.Error("differential queries never touched the cold tier")
	}
}

// TestColdQueryRestart: after a restart (fresh System, same history dir,
// EMPTY hot tier) every query must be answered entirely from the segment
// log, still bit-identical to the in-RAM reference.
func TestColdQueryRestart(t *testing.T) {
	dir := t.TempDir()
	cfgA := testConfig(0)
	cfgA.PollPeriodNs = 256
	ram, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig(0)
	cfgB.PollPeriodNs = 256
	cfgB.MaxCheckpoints = 3
	cfgB.History = &histstore.Options{Dir: dir}
	tiered, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	horizon := feedIdentical(t, []*System{ram, tiered}, 8000)
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same directory, no traffic. All history is cold.
	reborn, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if n := len(reborn.Checkpoints(0)); n != 0 {
		t.Fatalf("restarted system has %d hot checkpoints, want 0", n)
	}

	rng := rand.New(rand.NewPCG(3, 9))
	for q := 0; q < 80; q++ {
		lo := rng.Uint64N(horizon)
		hi := lo + 1 + rng.Uint64N(horizon/2)
		want, err := ram.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reborn.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("restarted query [%d,%d): %v", lo, hi, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("after restart, interval [%d,%d): got %v want %v", lo, hi, got, want)
		}
	}
}

// TestHistoryBytesGauge: the shared gauge tracks the hot tier's bytes — each
// checkpoint's index and monitors, charged once at retirement — and a
// query, which builds nothing, leaves it where it is.
func TestHistoryBytesGauge(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildDeepHistory(t, s, 0, 8)

	var want int64
	for _, cp := range s.Checkpoints(0) {
		if cp.Filtered() != cp.TW {
			t.Fatal("Filtered is not the checkpoint's index")
		}
		want += cp.memBytes()
	}
	if got := s.HistoryBytes(); got != want || got <= 0 {
		t.Fatalf("history bytes gauge %d, the hot checkpoints hold %d", got, want)
	}
	if _, err := s.QueryInterval(0, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.HistoryBytes(); got != want {
		t.Fatalf("gauge moved from %d to %d on a query", want, got)
	}
}

// TestHistoryBytesEvictionRefund: with a bounded hot tier, retiring
// checkpoints must refund the evicted checkpoint's bytes so the gauge
// tracks residency, not lifetime total.
func TestHistoryBytesEvictionRefund(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildDeepHistory(t, s, 0, 4)
	settled := s.HistoryBytes()
	// Keep flowing: the ring stays at 4 entries, so the gauge must stay in
	// the same band (each retire adds one checkpoint and refunds one).
	var ts uint64 = 1_000_000
	for i := 0; i < 40000; i++ {
		ts += 8
		s.OnDequeue(deq(fkey(byte(i%24)), 0, ts-16, ts, 8))
	}
	s.Finalize(ts + 1)
	after := s.HistoryBytes()
	if after > settled*3 {
		t.Fatalf("gauge grew from %d to %d with a bounded hot tier: eviction refund broken", settled, after)
	}
}

// TestCpRingWraparound exercises the ring buffer against a reference slice
// for both bounded (overwrite-in-place) and unbounded (growing) modes.
func TestCpRingWraparound(t *testing.T) {
	for _, max := range []int{0, 1, 3, 4, 7} {
		var ring cpRing
		var ref []*Checkpoint
		var evictedRing, evictedRef []*Checkpoint
		for i := 0; i < 100; i++ {
			cp := &Checkpoint{FreezeTime: uint64(1000 + i*100), PrevFreeze: uint64(1000 + (i-1)*100)}
			if ev := ring.push(cp, max); ev != nil {
				evictedRing = append(evictedRing, ev)
			}
			ref = append(ref, cp)
			if max > 0 && len(ref) > max {
				evictedRef = append(evictedRef, ref[0])
				ref = ref[1:]
			}
			if ring.len() != len(ref) {
				t.Fatalf("max=%d step=%d: len %d, want %d", max, i, ring.len(), len(ref))
			}
			for j := range ref {
				if ring.at(j) != ref[j] {
					t.Fatalf("max=%d step=%d: at(%d) mismatch", max, i, j)
				}
			}
			if !reflect.DeepEqual(ring.slice(), ref) {
				t.Fatalf("max=%d step=%d: slice mismatch", max, i)
			}
		}
		if !reflect.DeepEqual(evictedRing, evictedRef) {
			t.Fatalf("max=%d: evictions diverge: ring %d, ref %d", max, len(evictedRing), len(evictedRef))
		}
	}
}

// TestCpRingPruneCopy checks the binary-searched run extraction against a
// brute-force overlap filter at every wrap state of a bounded ring.
func TestCpRingPruneCopy(t *testing.T) {
	const max = 5
	var ring cpRing
	for i := 0; i < 37; i++ {
		prev := uint64(1000 + i*100)
		ring.push(&Checkpoint{PrevFreeze: prev, FreezeTime: prev + 100}, max)
		for start := uint64(900); start < uint64(1300+i*100); start += 70 {
			end := start + 250
			got := ring.pruneCopy(start, end)
			var want []timewindow.Covered
			for _, cp := range ring.slice() {
				if cp.FreezeTime > start && cp.PrevFreeze < end {
					want = append(want, cp)
				}
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d query [%d,%d): got %d checkpoints, want %d", i, start, end, len(got), len(want))
			}
		}
	}
}

// TestColdCheckpointCounter: serving a query from the cold tier increments
// the query-path counter used by ops dashboards.
func TestColdCheckpointCounter(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 2
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feedIdentical(t, []*System{s}, 8000)
	if _, err := s.QueryInterval(0, 0, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.qpath.coldCheckpoints.Load(); got == 0 {
		t.Error("all-history query touched no cold checkpoints")
	}
}
