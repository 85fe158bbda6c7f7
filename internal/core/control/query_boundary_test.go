package control

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"printqueue/internal/core/histstore"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// scanInterval is the interval-query oracle: every hot checkpoint of the
// port plus every cold one below the hot tier's coverage start, each clamped
// to [start, end) and walked cell by cell (scanInto) — no coverage search
// against the interval, no binary search of the index, no sharding. The cold
// ones are read from the log record by record (ReplaySince + DecodeRecord),
// not through the store's cache, so the cold tier's index is compared with
// an independent decode. Every source the engine answers from is compared
// with it.
func scanInterval(s *System, port int, start, end uint64) flow.Counts {
	hot := s.Checkpoints(port)
	hotStart := ^uint64(0)
	if len(hot) > 0 {
		hotStart = hot[0].PrevFreeze
	}
	rows := make(map[flow.Key][]int64)
	if s.hist != nil {
		err := s.hist.ReplaySince(0, func(payload []byte, p int, freeze, prev uint64, _ bool) error {
			if p != port || prev >= hotStart {
				return nil
			}
			rec, err := histstore.DecodeRecord(payload)
			if err != nil {
				return err
			}
			scanInto(rows, rec.TW, max(start, prev), min(end, freeze))
			return nil
		})
		if err != nil {
			panic(err)
		}
	}
	for _, cp := range hot {
		scanInto(rows, cp.TW, max(start, cp.PrevFreeze), min(end, cp.FreezeTime))
	}
	return foldRows(rows, s.cfg.TW.Coefficients())
}

// scanInto counts into rows, per flow and window, every cell f keeps whose
// period overlaps [start, end), walking each window's cells one by one — and
// checks on the way that each lies in the span Algorithm 3 retains behind
// its window's anchor.
func scanInto(rows map[flow.Key][]int64, f *timewindow.Filtered, start, end uint64) {
	cfg := f.Config()
	for i := 0; i < cfg.T; i++ {
		anchor, _ := f.Anchor(i)
		shift := cfg.M0 + cfg.Alpha*uint(i)
		for _, ref := range f.Window(i) {
			tts := cfg.Base(anchor) + uint64(ref.Pos)
			if tts > anchor || anchor-tts >= uint64(cfg.Cells()) {
				panic(fmt.Sprintf("window %d keeps a cell at TTS %d, outside the span its anchor %d retains", i, tts, anchor))
			}
			if s := tts << shift; end <= start || s >= end || s+cfg.CellPeriod(i) <= start {
				continue
			}
			k := f.Flows()[ref.Flow]
			if rows[k] == nil {
				rows[k] = make([]int64, cfg.T)
			}
			rows[k][i]++
		}
	}
}

// foldRows turns per-window cell counts into estimates as Algorithm 2 does:
// each flow's is the ascending-window sum of count/coefficient.
func foldRows(rows map[flow.Key][]int64, coeff []float64) flow.Counts {
	out := make(flow.Counts, len(rows))
	for k, row := range rows {
		var est float64
		for i, n := range row {
			if n != 0 {
				est += float64(n) / coeff[i]
			}
		}
		if est != 0 {
			out.Add(k, est)
		}
	}
	return out
}

// tieredConfig is a tiny hot tier backed by the segment log in dir: nearly
// everything is evicted to the cold tier.
func tieredConfig(dir string) Config {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 3
	cfg.History = &histstore.Options{Dir: dir}
	return cfg
}

// newTieredSystem builds a fed tieredConfig system and returns it with the
// feed horizon and the hot tier's coverage start (the hot/cold partition
// point).
func newTieredSystem(t testing.TB, dir string) (s *System, horizon, hotStart uint64) {
	t.Helper()
	s, err := New(tieredConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	horizon = feedIdentical(t, []*System{s}, 8000)
	cps := s.Checkpoints(0)
	if len(cps) == 0 {
		t.Fatal("no hot checkpoints after feed")
	}
	hotStart = cps[0].PrevFreeze
	if hotStart < 2000 {
		t.Fatalf("hot tier starts at %d; history never evicted to the cold tier", hotStart)
	}
	return s, horizon, hotStart
}

type interval struct {
	name   string
	lo, hi uint64
}

// boundaryIntervals is the interval set every source is held to the oracle
// on: the whole history, its edges, the hot/cold partition from every side,
// and 120 seeded random intervals.
func boundaryIntervals(horizon, hotStart uint64) []interval {
	out := []interval{
		{"full-history", 0, horizon + 1000},
		{"cold-only", 0, hotStart / 2},
		{"straddle", hotStart - 300, hotStart + 300},
		{"ends-at-boundary", hotStart - 500, hotStart},
		{"starts-at-boundary", hotStart, hotStart + 500},
		{"hot-only", horizon - 50, horizon + 1},
		{"beyond-horizon", horizon + 100, horizon + 200},
		{"before-first-packet", 0, 1},
		{"last-instant", horizon, horizon + 1},
		{"point", horizon / 2, horizon/2 + 1},
	}
	rng := rand.New(rand.NewPCG(5, 13))
	for q := 0; q < 120; q++ {
		lo := rng.Uint64N(horizon)
		out = append(out, interval{"random", lo, lo + 1 + rng.Uint64N(horizon/2)})
	}
	return out
}

// TestQueryPathBoundaryDifferential pins the engine against the scan oracle
// across the hot/cold partition, for every source an interval is answered
// from on a switch: a bounded hot ring over the log, and the log alone after
// a restart. (The scan path
// this test was written for once ignored the segment log entirely, so any
// interval reaching below the oldest hot checkpoint silently lost the cold
// contribution; the fleet package holds a Mirror to the same intervals.)
func TestQueryPathBoundaryDifferential(t *testing.T) {
	dir := t.TempDir()
	s, horizon, hotStart := newTieredSystem(t, dir)
	cases := boundaryIntervals(horizon, hotStart)
	check := func(t *testing.T, src *System, query func(lo, hi uint64) (flow.Counts, error)) []flow.Counts {
		t.Helper()
		answers := make([]flow.Counts, len(cases))
		for i, c := range cases {
			got, err := query(c.lo, c.hi)
			if err != nil {
				t.Fatalf("%s: query [%d,%d): %v", c.name, c.lo, c.hi, err)
			}
			want := scanInterval(src, 0, c.lo, c.hi)
			if got == nil || want == nil {
				t.Fatalf("%s: nil counts (engine=%v scan=%v); empty results must be non-nil", c.name, got, want)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: interval [%d,%d): engine %v != scan %v", c.name, c.lo, c.hi, got, want)
			}
			answers[i] = got
		}
		return answers
	}

	var live []flow.Counts
	t.Run("bounded-hot+log", func(t *testing.T) {
		live = check(t, s, func(lo, hi uint64) (flow.Counts, error) { return s.QueryInterval(0, lo, hi) })
		if s.qpath.coldCheckpoints.Load() == 0 {
			t.Fatal("no query reached the cold tier")
		}
	})
	t.Run("reopened-cold-only", func(t *testing.T) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reborn, err := New(tieredConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer reborn.Close()
		if n := len(reborn.Checkpoints(0)); n != 0 {
			t.Fatalf("restarted system has %d hot checkpoints, want 0", n)
		}
		got := check(t, reborn, func(lo, hi uint64) (flow.Counts, error) { return reborn.QueryInterval(0, lo, hi) })
		if live != nil && !reflect.DeepEqual(got, live) {
			t.Fatal("the log alone answers differently from the ring over the log")
		}
	})
}

// TestQueryPathDegenerateIntervals: reversed (start > end) and empty
// (start == end) intervals must fail identically — same error, no partial
// answer — whether they sit in the hot tier, the cold tier, or exactly on
// the partition boundary.
func TestQueryPathDegenerateIntervals(t *testing.T) {
	s, horizon, hotStart := newTieredSystem(t, t.TempDir())
	cases := [][2]uint64{
		{10, 10},                       // empty, cold
		{hotStart, hotStart},           // empty, on the boundary
		{horizon, horizon},             // empty, hot
		{0, 0},                         // empty at origin
		{500, 100},                     // reversed, cold
		{hotStart + 10, hotStart - 10}, // reversed across the boundary
		{horizon + 5, horizon},         // reversed, hot
		{^uint64(0), 0},                // reversed, extreme
	}
	for _, c := range cases {
		counts, err := s.QueryInterval(0, c[0], c[1])
		if err == nil {
			t.Fatalf("degenerate interval [%d,%d) accepted", c[0], c[1])
		}
		if want := fmt.Sprintf("control: empty query interval [%d, %d)", c[0], c[1]); err.Error() != want {
			t.Fatalf("interval [%d,%d): error %q, want %q", c[0], c[1], err, want)
		}
		if counts != nil {
			t.Fatalf("interval [%d,%d): counts returned alongside error", c[0], c[1])
		}
	}
}

// FuzzIntervalMatchesOracle holds QueryInterval to the scan oracle on any
// interval over one fixed history (a bounded hot ring over the log): the
// answers are bit-identical, and the query fails exactly when the interval
// is empty or reversed.
func FuzzIntervalMatchesOracle(f *testing.F) {
	s, horizon, hotStart := newTieredSystem(f, f.TempDir())
	edges := []uint64{0, hotStart - 1, hotStart, hotStart + 1, horizon, ^uint64(0)}
	for _, lo := range edges {
		for _, hi := range edges {
			f.Add(lo, hi)
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi uint64) {
		got, err := s.QueryInterval(0, lo, hi)
		if (err != nil) != (hi <= lo) {
			t.Fatalf("interval [%d,%d): error %v", lo, hi, err)
		}
		if err != nil {
			return
		}
		if want := scanInterval(s, 0, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("interval [%d,%d): engine %v != scan %v", lo, hi, got, want)
		}
	})
}

// TestFoldScratchReuse: AccumulateInto's pooled scratch must come back
// zeroed whatever it last counted. Checkpoints alternate between hundreds of
// flows and two; folding a many-flow one, then a few-flow one, then the
// many-flow one again — serially, and as long folds on concurrent query
// workers — must give the oracle's answer every time. A scratch returned with
// a row or a seen flag left set carries one fold's counts into the next.
func TestFoldScratchReuse(t *testing.T) {
	key := func(n int) flow.Key {
		return flow.Key{SrcIP: [4]byte{10, 1, byte(n >> 8), byte(n)}, DstIP: [4]byte{10, 0, 1, 1}, SrcPort: 7, DstPort: 80, Proto: flow.ProtoTCP}
	}
	cfg := testConfig(0)
	cfg.PollPeriodNs = 1024
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 12000; i++ {
		ts += 4
		f := key(i % 997)
		if i/1024%2 == 1 {
			f = key(i % 2)
		}
		s.OnDequeue(deq(f, 0, ts-20, ts, 8))
	}
	s.Finalize(ts + 1)
	horizon := ts + 1

	var many, few []*Checkpoint
	for _, cp := range s.Checkpoints(0) {
		switch n := len(cp.TW.Flows()); {
		case n >= 40:
			many = append(many, cp)
		case n > 0 && n <= 2:
			few = append(few, cp)
		}
	}
	if len(many) < 4 || len(few) < 4 {
		t.Fatalf("%d many-flow and %d few-flow checkpoints; the trace must alternate", len(many), len(few))
	}
	check := func(what string, got flow.Counts, err error, lo, hi uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s [%d,%d): %v", what, lo, hi, err)
		}
		if want := scanInterval(s, 0, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s [%d,%d): %d flows, the oracle %d", what, lo, hi, len(got), len(want))
		}
	}
	for i := range min(len(many), len(few)) {
		for _, cp := range []*Checkpoint{many[i], few[i], many[(i+1)%len(many)]} {
			lo, hi := cp.PrevFreeze, cp.FreezeTime+1
			got, err := s.QueryInterval(0, lo, hi)
			check("serial fold", got, err, lo, hi)
		}
	}

	qs := NewQueryServer(s)
	qs.Start(4)
	defer qs.Stop()
	type query struct {
		lo, hi uint64
		want   flow.Counts
	}
	var queries []query
	longest := 0 // checkpoints in the longest run a query folds
	rng := rand.New(rand.NewPCG(41, 3))
	for q := 0; q < 40; q++ {
		lo := rng.Uint64N(horizon)
		hi := lo + 1 + rng.Uint64N(horizon/2)
		if q%4 == 0 { // one checkpoint
			cp := few[rng.IntN(len(few))]
			if q%8 == 0 {
				cp = many[rng.IntN(len(many))]
			}
			lo, hi = cp.PrevFreeze, cp.FreezeTime+1
		}
		before := s.qpath.checkpointsScanned.Load()
		if _, err := s.QueryInterval(0, lo, hi); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, int(s.qpath.checkpointsScanned.Load()-before))
		queries = append(queries, query{lo, hi, scanInterval(s, 0, lo, hi)})
	}
	if longest < 8 {
		t.Fatalf("the longest query folds %d checkpoints; the concurrent half must hold long runs to the oracle", longest)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for r := 0; r < 3; r++ {
				for i := range queries {
					q := queries[(i*(g+1)+r)%len(queries)]
					res := qs.Interval(0, q.lo, q.hi)
					if res.Err != nil || !reflect.DeepEqual(res.Counts, q.want) {
						errs <- fmt.Errorf("worker fold [%d,%d): %d flows (%v), the oracle %d", q.lo, q.hi, len(res.Counts), res.Err, len(q.want))
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
