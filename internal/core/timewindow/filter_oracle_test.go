package timewindow

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"printqueue/internal/flow"
)

// refCell is one index entry with its flow resolved, so that indexes built
// with different interning orders compare equal.
type refCell struct {
	start uint64
	flow  flow.Key
}

// start is the span start of ref, a kept cell of f's window i.
func (f *Filtered) start(i int, ref CellRef) uint64 {
	return (f.cfg.Base(f.anchorTTS[i]) + uint64(ref.Pos)) << (f.cfg.M0 + f.cfg.Alpha*uint(i))
}

// referenceFilter is the seed's Filter + buildIndex, kept as the oracle:
// Algorithm 3 applied by copying every window with the stale cells zeroed,
// the survivors interned through a map in cell order and sorted by span
// start. It returns the per-window index and the number of distinct
// surviving flows.
func referenceFilter(s *Snapshot) (index [][]refCell, flows int) {
	cfg := s.cfg
	raw := s.Windows()
	windows := make([][]Cell, cfg.T)
	for i := range windows {
		windows[i] = make([]Cell, len(raw[i]))
	}
	index = make([][]refCell, cfg.T)
	tts, ok := s.latestCell()
	if !ok {
		return index, 0
	}
	cells := uint64(cfg.Cells())
	for i := 0; i < cfg.T; i++ {
		cid, idx := cfg.Split(tts)
		for j, c := range raw[i] {
			if !c.Valid {
				continue
			}
			if j <= idx {
				if c.CycleID == cid {
					windows[i][j] = c
				}
			} else if c.CycleID+1 == cid {
				windows[i][j] = c
			}
		}
		if tts < cells {
			break
		}
		tts = (tts - cells) >> cfg.Alpha
	}
	ids := make(map[flow.Key]int32)
	for i := range windows {
		shift := cfg.M0 + cfg.Alpha*uint(i)
		for j, c := range windows[i] {
			if !c.Valid {
				continue
			}
			if _, ok := ids[c.Flow]; !ok {
				ids[c.Flow] = int32(len(ids))
			}
			index[i] = append(index[i], refCell{start: (c.CycleID<<cfg.K | uint64(j)) << shift, flow: c.Flow})
		}
		refs := index[i]
		sort.Slice(refs, func(a, b int) bool { return refs[a].start < refs[b].start })
	}
	return index, len(ids)
}

// reassembled is f rebuilt by NewFiltered from the parts the checkpoint
// codec writes — window 0's anchor, the flow table, each window's index —
// after which f's own index is overwritten, so a query that still read it
// would read garbage.
func reassembled(t *testing.T, f *Filtered) *Filtered {
	t.Helper()
	anchor, ok := f.Anchor(0)
	index := make([][]CellRef, len(f.index))
	for i := range index {
		index[i] = append([]CellRef(nil), f.index[i]...)
	}
	g, err := NewFiltered(f.cfg, anchor, ok, func(i int, a uint64) ([]CellRef, error) {
		if a != f.anchorTTS[i] {
			t.Fatalf("window %d: reassembled anchor %d, read %d", i, a, f.anchorTTS[i])
		}
		return index[i], nil
	}, func() []flow.Key { return append([]flow.Key(nil), f.flows...) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, f) {
		t.Fatal("reassembled read differs from the read")
	}
	for i := range f.index {
		for n := range f.index[i] {
			f.index[i][n] = CellRef{Pos: 1 << 30, Flow: 1 << 20}
		}
	}
	return g
}

// checkAgainstReference holds every form of w's whole read to the oracle: the
// index Snapshot emits, the cell-list reference's Filter over the same
// registers, and the read reassembled from its parts as a decoder does.
func checkAgainstReference(t *testing.T, name string, w *Windows, rng *rand.Rand) {
	t.Helper()
	s := wholeCells(w)
	read, byCells := w.Snapshot(), s.Filter()
	if !reflect.DeepEqual(read, byCells) {
		t.Fatalf("%s: the whole read's index differs from Filter over its cells", name)
	}
	checkFilteredAgainstReference(t, name+"/read", s, read, rng)
	checkFilteredAgainstReference(t, name+"/cells", s, byCells, rng)
	checkFilteredAgainstReference(t, name+"/reassembled", s, reassembled(t, w.Snapshot()), rng)
}

// checkFilteredAgainstReference holds f, the Filtered of s, to the oracle:
// same ordered index, same flows, same survivors, and every query equal to
// the same walk over the oracle's filtered copy and to the reference scan
// of s.
func checkFilteredAgainstReference(t *testing.T, name string, s *Snapshot, f *Filtered, rng *rand.Rand) {
	t.Helper()
	cfg := s.cfg
	refIndex, refFlows := referenceFilter(s)

	if len(f.flows) != refFlows {
		t.Fatalf("%s: %d interned flows, reference %d", name, len(f.flows), refFlows)
	}
	seen := make(map[flow.Key]bool)
	for _, k := range f.flows {
		if seen[k] {
			t.Fatalf("%s: flow %v interned twice", name, k)
		}
		seen[k] = true
	}
	for i := 0; i < cfg.T; i++ {
		got := make([]refCell, 0, len(f.index[i]))
		for _, ref := range f.index[i] {
			got = append(got, refCell{start: f.start(i, ref), flow: f.flows[ref.Flow]})
		}
		if len(got) != len(refIndex[i]) || (len(got) > 0 && !reflect.DeepEqual(got, refIndex[i])) {
			t.Fatalf("%s: window %d index differs from the sorted reference\n got %v\nwant %v", name, i, got, refIndex[i])
		}
		for j := 1; j < len(got); j++ {
			if got[j].start <= got[j-1].start {
				t.Fatalf("%s: window %d index not strictly ascending at %d", name, i, j)
			}
		}
	}
	surviving := f.SurvivingCells()
	for i := range refIndex {
		if surviving[i] != len(refIndex[i]) {
			t.Fatalf("%s: window %d: %d surviving cells, reference %d", name, i, surviving[i], len(refIndex[i]))
		}
	}
	if f.Empty() != (refFlows == 0) {
		t.Fatalf("%s: Empty() = %v with %d surviving flows", name, f.Empty(), refFlows)
	}

	// Every query, against a walk over the reference's survivors.
	refCounts := func(i int, lo, hi uint64, per float64) flow.Counts {
		out := make(flow.Counts)
		if hi <= lo {
			return out
		}
		for _, ref := range refIndex[i] {
			if ref.start < hi && ref.start+cfg.CellPeriod(i) > lo {
				out.Add(ref.flow, per)
			}
		}
		return out
	}
	coeff := cfg.Coefficients()
	horizon := uint64(1)<<(cfg.M0+cfg.Alpha*uint(cfg.T-1)+cfg.K) + 64
	for q := 0; q < 30; q++ {
		lo := rng.Uint64N(horizon)
		hi := lo + rng.Uint64N(horizon/2+2)
		switch q {
		case 0:
			lo, hi = 0, ^uint64(0)
		case 1:
			hi = lo
		}
		raw := f.RawWindowCounts(lo, hi)
		for i := 0; i < cfg.T; i++ {
			if want := refCounts(i, lo, hi, 1); !reflect.DeepEqual(raw[i], want) {
				t.Fatalf("%s: RawWindowCounts window %d over [%d,%d) = %v, reference %v", name, i, lo, hi, raw[i], want)
			}
			if got, want := f.QueryWindow(i, lo, hi), refCounts(i, lo, hi, 1/coeff[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: QueryWindow %d over [%d,%d) = %v, reference %v", name, i, lo, hi, got, want)
			}
		}
		indexed, scanned := NewAccumulator(cfg.T, coeff), NewAccumulator(cfg.T, coeff)
		f.AccumulateInto(indexed, lo, hi)
		if visited, all := s.AccumulateScanInto(scanned, lo, hi), s.KeptCells(); hi > lo && !f.Empty() && visited != all {
			t.Fatalf("%s: scan visited %d cells of %d", name, visited, all)
		}
		if got, want := indexed.Counts(), scanned.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AccumulateInto over [%d,%d) = %v, AccumulateScanInto %v", name, lo, hi, got, want)
		}
		if got, want := f.Query(lo, hi), s.QueryScan(lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Query over [%d,%d) = %v, QueryScan %v", name, lo, hi, got, want)
		}
		wantRows := make(map[flow.Key][]int64)
		for i := 0; i < cfg.T; i++ {
			for k, n := range refCounts(i, lo, hi, 1) {
				if wantRows[k] == nil {
					wantRows[k] = make([]int64, cfg.T)
				}
				wantRows[k][i] = int64(n)
			}
		}
		if got := rowsOf(scanned); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("%s: integer rows over [%d,%d) = %v, reference %v", name, lo, hi, got, wantRows)
		}
	}
}

// rowsOf exposes an accumulator's integer rows by flow.
func rowsOf(a *Accumulator) map[flow.Key][]int64 {
	out := make(map[flow.Key][]int64, len(a.flows))
	for id, k := range a.flows {
		out[k] = a.counts[id*a.t : (id+1)*a.t]
	}
	return out
}

// TestFilterMatchesSortedReference drives the sort-free, copy-free Filter
// against the oracle over seeded snapshots: ordinary traces, traces over
// reused (stale, garbage-laden) registers, and the edge cases — an empty
// snapshot, everything in cycle 0, and histories too short to give the
// deeper windows an anchor (the early break).
func TestFilterMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))

	w, _ := New(smallConfig(), nil)
	checkAgainstReference(t, "empty", w, rng)

	w, _ = New(smallConfig(), nil)
	for i := uint64(0); i < 4; i++ {
		w.Insert(fkey(uint32(i)), i)
	}
	checkAgainstReference(t, "cycle 0 only", w, rng)

	// The anchor chain stops at window 1: window 0's anchor is past one
	// window period, window 1's is not.
	cfg := Config{M0: 0, K: 3, Alpha: 1, T: 4, MinPktTxDelayNs: 1.25}
	w, _ = New(cfg, nil)
	for ts := uint64(0); ts < 20; ts++ {
		w.Insert(fkey(uint32(ts%5)), ts)
	}
	if f := w.Snapshot(); f.live != 2 {
		t.Fatalf("early-break fixture reached %d windows, want 2", f.live)
	}
	checkAgainstReference(t, "early break", w, rng)

	for trial := 0; trial < 80; trial++ {
		cfg := Config{
			M0:              uint(rng.IntN(4)),
			K:               uint(1 + rng.IntN(6)),
			Alpha:           uint(1 + rng.IntN(3)),
			T:               1 + rng.IntN(4),
			MinPktTxDelayNs: 1.25,
		}
		var storage [][]Cell
		var ts uint64
		if trial%2 == 1 {
			// Reused registers: leftovers of an earlier occupant, valid
			// cells with cycle ids all around the ones the trace will write.
			ts = rng.Uint64N(1 << 20)
			storage = make([][]Cell, cfg.T)
			for i := range storage {
				storage[i] = make([]Cell, cfg.Cells())
				base := ts >> (cfg.M0 + cfg.Alpha*uint(i) + cfg.K)
				for j := range storage[i] {
					if rng.IntN(3) > 0 {
						storage[i][j] = Cell{Flow: fkey(1000 + uint32(rng.IntN(30))), CycleID: base + rng.Uint64N(4), Valid: true}
						if base > 2 && rng.IntN(2) == 0 {
							storage[i][j].CycleID = base - rng.Uint64N(3)
						}
					}
				}
			}
		}
		w, err := New(cfg, packStorage(storage))
		if err != nil {
			t.Fatal(err)
		}
		for n := rng.IntN(4000); n > 0; n-- {
			ts += uint64(1 + rng.IntN(50))
			w.Insert(fkey(uint32(rng.IntN(60))), ts)
		}
		checkAgainstReference(t, "random", w, rng)
	}
}

// TestFilteredOwnsOnlyItsIndex: the history gauge and the cold cache charge
// a Filtered for MemBytes, which must be what it owns — index at
// unsafe.Sizeof(CellRef{}), 8 bytes, a cell, flows and anchors, not the
// coefficients every read of its Config shares; it holds no cells — and
// smaller than the cell lists it indexes.
func TestFilteredOwnsOnlyItsIndex(t *testing.T) {
	cfg := Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	w, _ := New(cfg, nil)
	rng := rand.New(rand.NewPCG(5, 6))
	var ts uint64
	for i := 0; i < 100000; i++ {
		ts += uint64(40 + rng.IntN(120))
		w.Insert(fkey(uint32(rng.IntN(3000))), ts)
	}
	s, f := wholeCells(w), w.Snapshot()
	var refs int64
	for _, n := range f.SurvivingCells() {
		refs += int64(n)
	}
	if unsafe.Sizeof(CellRef{}) != 8 {
		t.Fatalf("a CellRef is %d bytes, want 8", unsafe.Sizeof(CellRef{}))
	}
	want := refs*int64(unsafe.Sizeof(CellRef{})) + int64(len(f.flows))*16 + int64(cfg.T)*8
	if got := f.MemBytes(); got != want {
		t.Fatalf("Filtered.MemBytes = %d, want %d (index of %d cells, %d flows, anchors)", got, want, refs, len(f.flows))
	}
	if f.MemBytes() >= s.MemBytes() {
		t.Fatalf("Filtered (%d B) as large as the snapshot it indexes (%d B)", f.MemBytes(), s.MemBytes())
	}
}

// BenchmarkFilter prices one Algorithm-3 index build at the paper's geometry
// over a many-flow (UW-like) and a few-flow (WS-like) register set: the whole
// read emitting it, and the cell-list reference filtering the same registers.
func BenchmarkFilter(b *testing.B) {
	cfg := Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	for _, shape := range []struct {
		name       string
		flows, run int
	}{{"many_flows", 3000, 1}, {"few_flows", 6, 40}} {
		w, _ := New(cfg, nil)
		rng := rand.New(rand.NewPCG(5, 6))
		var ts uint64
		var f flow.Key
		for i := 0; i < 200000; i++ {
			ts += uint64(40 + rng.IntN(120))
			if i%shape.run == 0 {
				f = fkey(uint32(rng.IntN(shape.flows)))
			}
			w.Insert(f, ts)
		}
		s := wholeCells(w)
		b.Run(shape.name+"/read", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w.Snapshot().Empty() {
					b.Fatal("empty")
				}
			}
		})
		b.Run(shape.name+"/cells", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.Filter().Empty() {
					b.Fatal("empty")
				}
			}
		})
	}
}
