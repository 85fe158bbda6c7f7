package qmonitor

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"printqueue/internal/flow"
)

func fkey(c byte) flow.Key {
	return flow.Key{
		SrcIP:   [4]byte{10, 0, 0, c},
		DstIP:   [4]byte{10, 0, 1, 1},
		SrcPort: 1000,
		DstPort: 80,
		Proto:   flow.ProtoTCP,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		cfg Config
		ok  bool
	}{
		{Config{MaxDepthCells: 32768, GranuleCells: 2}, true},
		{Config{MaxDepthCells: 0, GranuleCells: 2}, false},
		{Config{MaxDepthCells: 100, GranuleCells: 0}, false},
		{Config{MaxDepthCells: 1, GranuleCells: 2}, false}, // < 2 entries
	}
	for _, tt := range tests {
		if err := tt.cfg.Validate(); (err == nil) != tt.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tt.cfg, err, tt.ok)
		}
	}
}

func TestLevel(t *testing.T) {
	c := Config{MaxDepthCells: 100, GranuleCells: 10}
	if got := c.Entries(); got != 11 {
		t.Fatalf("Entries = %d, want 11", got)
	}
	tests := []struct{ depth, want int }{
		{-5, 0}, {0, 0}, {9, 0}, {10, 1}, {99, 9}, {100, 10}, {5000, 10},
	}
	for _, tt := range tests {
		if got := c.Level(tt.depth); got != tt.want {
			t.Errorf("Level(%d) = %d, want %d", tt.depth, got, tt.want)
		}
	}
}

func mon(t *testing.T) *Monitor {
	t.Helper()
	m, err := New(Config{MaxDepthCells: 100, GranuleCells: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFigure7 reproduces the paper's queue-monitor example: packet A brings
// the queue to 2, B to 5, the queue drains back to 2 (observed by C), and D
// brings it to 7. The filtered original culprits are A and D; B's entry at
// level 5 is stale.
func TestFigure7(t *testing.T) {
	m, err := New(Config{MaxDepthCells: 10, GranuleCells: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	A, B, C, D := fkey('A'), fkey('B'), fkey('C'), fkey('D')
	m.Observe(A, 2) // rise to 2
	m.Observe(B, 5) // rise to 5
	m.Observe(C, 2) // drain back to 2
	m.Observe(D, 7) // rise to 7
	snap := m.Snapshot()
	if snap.Top() != 7 {
		t.Fatalf("top = %d, want 7", snap.Top())
	}
	culprits := snap.OriginalCulprits()
	counts := FlowCounts(culprits)
	if len(counts) != 2 || counts[A] != 1 || counts[D] != 1 {
		t.Fatalf("culprits = %v, want {A, D}", counts)
	}
	// The unfiltered ablation wrongly includes B's stale peak.
	noFilter := FlowCounts(snap.OriginalCulpritsNoFilter())
	if noFilter[B] != 1 {
		t.Fatalf("no-filter ablation = %v, want B included", noFilter)
	}
}

func TestEqualLevelIgnored(t *testing.T) {
	m := mon(t)
	m.Observe(fkey('A'), 30)
	seq := m.Seq()
	m.Observe(fkey('B'), 35) // same level (3): no update
	if m.Seq() != seq {
		t.Fatal("equal-level observation advanced the sequence counter")
	}
	counts := FlowCounts(m.Snapshot().OriginalCulprits())
	if counts[fkey('A')] != 1 || counts[fkey('B')] != 0 {
		t.Fatalf("counts = %v, want only A", counts)
	}
}

func TestFirstObservationPrimes(t *testing.T) {
	m := mon(t)
	// The first packet ever observed is recorded even at level 0.
	m.Observe(fkey('A'), 5)
	if m.Top() != 0 {
		t.Fatalf("top = %d, want 0", m.Top())
	}
	culprits := m.Snapshot().OriginalCulprits()
	if len(culprits) != 1 || culprits[0].Flow != fkey('A') {
		t.Fatalf("culprits = %v, want A at level 0", culprits)
	}
}

func TestDrainRiseDrainRise(t *testing.T) {
	m := mon(t)
	A, B, C, D := fkey('A'), fkey('B'), fkey('C'), fkey('D')
	m.Observe(A, 20)  // level 2
	m.Observe(B, 100) // level 10
	m.Observe(C, 40)  // drain to level 4
	m.Observe(D, 70)  // rise to level 7
	counts := FlowCounts(m.Snapshot().OriginalCulprits())
	// A (level 2) still culpable; B's level-10 record is above top; D
	// explains 7. B wrote only at level 10, so levels 3..4 have no entry.
	if counts[A] != 1 || counts[D] != 1 || counts[B] != 0 {
		t.Fatalf("counts = %v, want A and D", counts)
	}
}

func TestAdoptContinuity(t *testing.T) {
	// Split observations across two register sets, as the control plane's
	// periodic flip does, and check the merged snapshot equals the
	// single-set result.
	single := mon(t)
	a := mon(t)
	b := mon(t)
	obs := []struct {
		f     flow.Key
		depth int
	}{
		{fkey('A'), 20}, {fkey('B'), 50}, {fkey('C'), 30}, {fkey('D'), 80}, {fkey('E'), 60}, {fkey('F'), 90},
	}
	for _, o := range obs {
		single.Observe(o.f, o.depth)
	}
	for _, o := range obs[:3] {
		a.Observe(o.f, o.depth)
	}
	b.Adopt(a.Top(), a.Seq())
	for _, o := range obs[3:] {
		b.Observe(o.f, o.depth)
	}
	want := FlowCounts(single.Snapshot().OriginalCulprits())
	got := FlowCounts(Merge(a.Snapshot(), b.Snapshot()).OriginalCulprits())
	if len(want) != len(got) {
		t.Fatalf("merged %v, single-set %v", got, want)
	}
	for f, n := range want {
		if got[f] != n {
			t.Fatalf("merged %v, single-set %v", got, want)
		}
	}
}

func TestMergeNil(t *testing.T) {
	m := mon(t)
	m.Observe(fkey('A'), 20)
	s := m.Snapshot()
	if Merge(nil, s) != s || Merge(s, nil) != s {
		t.Fatal("merge with nil should return the other snapshot")
	}
}

// TestStaircaseInvariant property-checks the filter: surviving culprits
// have strictly increasing levels AND strictly increasing sequence numbers,
// and the count never exceeds top+1.
func TestStaircaseInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 200; trial++ {
		m, err := New(Config{MaxDepthCells: 64, GranuleCells: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			m.Observe(fkey(byte(rng.IntN(26))+'A'), rng.IntN(64))
		}
		snap := m.Snapshot()
		culprits := snap.OriginalCulprits()
		if len(culprits) > snap.Top()+1 {
			t.Fatalf("%d culprits for top %d", len(culprits), snap.Top())
		}
		for i := 1; i < len(culprits); i++ {
			if culprits[i].Level <= culprits[i-1].Level {
				t.Fatalf("levels not increasing: %v", culprits)
			}
			if culprits[i].Seq <= culprits[i-1].Seq {
				t.Fatalf("seqs not increasing: %v", culprits)
			}
		}
	}
}

func TestStorageValidation(t *testing.T) {
	cfg := Config{MaxDepthCells: 100, GranuleCells: 10}
	if _, err := New(cfg, make([]Reg, 5)); err == nil {
		t.Fatal("wrong storage length accepted")
	}
	if _, err := New(cfg, make([]Reg, cfg.Entries())); err != nil {
		t.Fatalf("exact storage rejected: %v", err)
	}
}

// TestFastLevelIsConfigLevel: Observe's reciprocal multiply is Config.Level,
// the definition, at every depth — the negative ones, the ones beyond the
// array and beyond what the reciprocal is exact for included — for every
// granule the presets could plausibly use, and for the geometries that take
// the fallback (granule 1; an array reaching past 2^32 cells of depth).
func TestFastLevelIsConfigLevel(t *testing.T) {
	far := []int{1 << 31, 1<<32 - 1, 1 << 32, 1 << 62}
	check := func(m *Monitor, depth int) {
		t.Helper()
		if got, want := m.level(depth), m.cfg.Level(depth); got != want {
			t.Fatalf("%+v: level(%d) = %d, Config.Level says %d", m.cfg, depth, got, want)
		}
	}
	for g := 1; g <= 64; g++ {
		for _, maxDepth := range []int{64, 1000, 32768} {
			m, err := New(Config{MaxDepthCells: maxDepth, GranuleCells: g}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (m.recip == 0) != (g == 1) {
				t.Fatalf("%+v: reciprocal %#x", m.cfg, m.recip)
			}
			for depth := -5; depth <= maxDepth+1000; depth++ {
				check(m, depth)
			}
			for _, depth := range far {
				check(m, depth)
			}
		}
	}
	for _, cfg := range []Config{
		{MaxDepthCells: 1 << 32, GranuleCells: 1 << 31}, // last level starts at 2^32: still exact
		{MaxDepthCells: 1 << 33, GranuleCells: 1 << 31}, // beyond: the definition answers
		{MaxDepthCells: 3<<32 + 5, GranuleCells: 1<<32 + 1},
	} {
		m, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantFast := cfg.MaxDepthCells == 1<<32; (m.recip != 0) != wantFast {
			t.Fatalf("%+v: reciprocal %#x", cfg, m.recip)
		}
		for _, base := range append(far, 0, cfg.GranuleCells, 2*cfg.GranuleCells, cfg.MaxDepthCells) {
			for d := -3; d <= 3; d++ {
				check(m, base+d)
			}
		}
	}
}

// TestRegHoldsWhatAnEntryHolds: what Observe wrote is what Snapshot and
// Freeze unpack — the all-zero 5-tuple included, which the written mark
// keeps apart from a register nothing was written to — and of a fall its
// sequence number alone.
func TestRegHoldsWhatAnEntryHolds(t *testing.T) {
	m := mon(t)
	zero, k := flow.Key{}, flow.Key{SrcIP: [4]byte{255, 254, 253, 252}, DstIP: [4]byte{1, 2, 3, 4}, SrcPort: 65535, DstPort: 1, Proto: 255}
	m.Observe(zero, 35) // seq 1: up at 3
	m.Observe(k, 70)    // seq 2: up at 7
	m.Observe(zero, 50) // seq 3: down at 5
	m.Observe(k, 35)    // seq 4: down at 3
	want := make([]Entry, m.cfg.Entries())
	want[3] = Entry{Up: Half{Flow: zero.Pack(), Seq: 1}, Down: 4}
	want[7].Up = Half{Flow: k.Pack(), Seq: 2}
	want[5].Down = 3
	if got := m.Snapshot().Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot entries\n got %+v\nwant %+v", got, want)
	}
	// Freeze keeps the staircase up to the top (3): both halves at level 3.
	frozen := slices.Clone(want)
	frozen[5], frozen[7] = Entry{}, Entry{}
	if got := m.Freeze().Entries(); !reflect.DeepEqual(got, frozen) {
		t.Fatalf("Freeze entries (top 3)\n got %+v\nwant %+v", got, frozen)
	}
	// A half with a cleared written mark is never-written, whatever else it
	// holds.
	m.regs[7].up.b = 0
	m.regs[5].down.b = 0
	if got := m.Snapshot().Entries(); got[7] != (Entry{}) || got[5] != (Entry{}) {
		t.Fatalf("never-written registers unpacked to %+v and %+v", got[7], got[5])
	}
}

func TestEntriesPerSnapshot(t *testing.T) {
	cfg := Config{MaxDepthCells: 100, GranuleCells: 10}
	if got := cfg.EntriesPerSnapshot(); got != 12 { // 11 entries + top
		t.Fatalf("EntriesPerSnapshot = %d, want 12", got)
	}
}

// setRotation replays the control plane's use of the monitor in miniature:
// four register sets per queue selected by a dp bit and a flip bit, a
// periodic flip and a data-plane freeze that each snapshot the active set,
// toggle one bit and Adopt top/seq into the new active set. It records the
// chain of (set, snapshots) in freeze order.
type setRotation struct {
	mons   [][4]*Monitor // [queue][set]
	active int
	chain  []frozenSet
}

type frozenSet struct {
	set     int
	snaps   []*Snapshot // one per queue: the whole array
	trimmed []*Snapshot // the same freezes as the control plane takes them: the staircase up to the top
}

func newSetRotation(t *testing.T, cfg Config, queues int) *setRotation {
	t.Helper()
	r := &setRotation{mons: make([][4]*Monitor, queues)}
	for q := range r.mons {
		for set := range r.mons[q] {
			m, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.mons[q][set] = m
		}
	}
	return r
}

// freeze snapshots the active set and moves to the set with bit toggled
// (1 = periodic flip, 2 = data-plane query).
func (r *setRotation) freeze(bit int) {
	f := frozenSet{set: r.active, snaps: make([]*Snapshot, len(r.mons)), trimmed: make([]*Snapshot, len(r.mons))}
	next := r.active ^ bit
	for q := range r.mons {
		f.snaps[q] = r.mons[q][r.active].Snapshot()
		f.trimmed[q] = r.mons[q][r.active].Freeze()
		r.mons[q][next].Adopt(r.mons[q][r.active].Top(), r.mons[q][r.active].Seq())
	}
	r.chain = append(r.chain, f)
	r.active = next
}

// newestPerSet returns queue q's newest snapshot of each set frozen so far,
// newest first — what the control plane hands CulpritsAcross.
func (r *setRotation) newestPerSet(q int) []*Snapshot { return r.newest(q, false) }

// newest is newestPerSet over the whole-array snapshots or, with trimmed
// set, over the staircase freezes of the same moments.
func (r *setRotation) newest(q int, trimmed bool) []*Snapshot {
	var out []*Snapshot
	var seen [4]bool
	for i := len(r.chain) - 1; i >= 0; i-- {
		f := r.chain[i]
		if seen[f.set] {
			continue
		}
		seen[f.set] = true
		if trimmed {
			out = append(out, f.trimmed[q])
		} else {
			out = append(out, f.snaps[q])
		}
	}
	return out
}

// driveRotation runs one seeded op sequence over a fresh rotation — observes
// on random queues, periodic flips, data-plane freezes, the first two
// freezes before any packet — and calls afterFreeze once per freeze.
func driveRotation(t *testing.T, seed uint64, cfg Config, queues int, afterFreeze func(op int, r *setRotation)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	r := newSetRotation(t, cfg, queues)
	r.freeze(1)
	r.freeze(2)
	depth := make([]int, queues)
	var usedSets [4]bool
	for op := 0; op < 1500; op++ {
		switch x := rng.IntN(100); {
		case x < 90:
			q := rng.IntN(queues)
			// Mostly small steps so staircases build; sometimes a jump,
			// which may overshoot the array and clamp.
			if rng.IntN(12) == 0 {
				depth[q] = rng.IntN(cfg.MaxDepthCells * 2)
			} else {
				depth[q] += rng.IntN(7) - 2
			}
			r.mons[q][r.active].Observe(fkey(byte('A'+rng.IntN(26))), depth[q])
			continue
		case x < 97:
			r.freeze(1)
		default:
			r.freeze(2)
		}
		usedSets[r.chain[len(r.chain)-1].set] = true
		afterFreeze(op, r)
	}
	if usedSets != [4]bool{true, true, true, true} {
		t.Fatalf("seed %d froze sets %v; the sequence must use all four", seed, usedSets)
	}
}

// chainMerge is the reference: Merge over every freeze so far, in order.
func (r *setRotation) chainMerge(q int) *Snapshot {
	var merged *Snapshot
	for _, f := range r.chain {
		merged = Merge(merged, f.snaps[q])
	}
	return merged
}

// TestCulpritsAcrossMatchesMergeChain drives seeded op sequences that put
// all four register sets in play and, after every freeze, holds the
// staircase over the newest snapshot of each set to the Merge of the whole
// chain — culprits and the top pointer the walk stops at. Depths beyond
// MaxDepthCells clamp at the last level; the first freezes happen before any
// packet, so empty snapshots are covered too.
func TestCulpritsAcrossMatchesMergeChain(t *testing.T) {
	cfg := Config{MaxDepthCells: 96, GranuleCells: 2}
	const queues = 3
	for seed := uint64(1); seed <= 20; seed++ {
		driveRotation(t, seed, cfg, queues, func(op int, r *setRotation) {
			for q := 0; q < queues; q++ {
				merged := r.chainMerge(q)
				snaps := r.newestPerSet(q)
				if snaps[0].Top() != merged.Top() {
					t.Fatalf("seed %d op %d queue %d: newest snapshot's top %d, chain merge's %d",
						seed, op, q, snaps[0].Top(), merged.Top())
				}
				got, want := CulpritsAcross(snaps), merged.OriginalCulprits()
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d queue %d: %d culprits across %d sets, chain merge has %d",
						seed, op, q, len(got), len(snaps), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d queue %d: culprit %d = %+v, want %+v", seed, op, q, i, got[i], want[i])
					}
				}
			}
		})
	}
	if got := CulpritsAcross(nil); got != nil {
		t.Fatalf("no snapshots gave %v", got)
	}
}

// TestFreezeAnswersLikeSnapshot: freezing the staircase loses nothing a walk
// reads. On the same rotation, after every freeze, the trimmed freeze lists
// only levels up to the top, only halves that raise its own running maximum,
// and every such half of the whole read; the staircase over the newest
// trimmed freeze of each set names the culprits the staircase over the whole
// arrays names, and so does the Merge reference over the trimmed chain. The
// sequences must actually leave halves above the top and halves below it
// that raise nothing, or nothing was trimmed.
func TestFreezeAnswersLikeSnapshot(t *testing.T) {
	cfg := Config{MaxDepthCells: 96, GranuleCells: 2}
	const queues = 3
	droppedAbove, droppedBelow := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		// The Merge reference over the trimmed chain, kept up freeze by freeze.
		var merged [queues]*Snapshot
		var mergedTo [queues]int
		driveRotation(t, seed, cfg, queues, func(op int, r *setRotation) {
			last := r.chain[len(r.chain)-1]
			for q := 0; q < queues; q++ {
				whole, trimmed := last.snaps[q], last.trimmed[q]
				if trimmed.Top() != whole.Top() {
					t.Fatalf("seed %d op %d queue %d: froze with top %d, whole read top %d", seed, op, q, trimmed.Top(), whole.Top())
				}
				kept := trimmed.Entries()
				var run uint64
				for level, e := range whole.Entries() {
					k := kept[level]
					for _, h := range [2][2]Half{{e.Up, k.Up}, {fall(e.Down), fall(k.Down)}} {
						w, kh := h[0], h[1]
						switch raises := w.Written() && w.Seq > run; {
						case kh.Written() && kh != w:
							t.Fatalf("seed %d op %d queue %d: level %d keeps %+v, the register holds %+v", seed, op, q, level, kh, w)
						case level > whole.Top() && kh.Written():
							t.Fatalf("seed %d op %d queue %d: level %d kept above the top %d", seed, op, q, level, whole.Top())
						case level <= whole.Top() && kh.Written() != raises:
							t.Fatalf("seed %d op %d queue %d: level %d half %+v kept=%v, raises the running maximum %d=%v",
								seed, op, q, level, w, kh.Written(), run, raises)
						case w.Written() && !kh.Written() && level > whole.Top():
							droppedAbove++
						case w.Written() && !kh.Written():
							droppedBelow++
						}
					}
					if level <= whole.Top() {
						run = max(run, e.Up.Seq, e.Down)
					}
				}
				want := CulpritsAcross(r.newestPerSet(q))
				if got := CulpritsAcross(r.newest(q, true)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d queue %d: trimmed freezes name %v, whole arrays %v", seed, op, q, got, want)
				}
				for ; mergedTo[q] < len(r.chain); mergedTo[q]++ {
					merged[q] = Merge(merged[q], r.chain[mergedTo[q]].trimmed[q])
				}
				if got := merged[q].OriginalCulprits(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d queue %d: merge of the trimmed chain names %v, want %v", seed, op, q, got, want)
				}
			}
		})
	}
	t.Logf("halves dropped: %d above a top, %d below it", droppedAbove, droppedBelow)
	if droppedAbove < 1000 || droppedBelow < 1000 {
		t.Fatalf("only %d halves lay above a top and %d below it without raising the staircase; the sequences do not exercise the trim",
			droppedAbove, droppedBelow)
	}
}

// fall is a frozen fall as a Half, for comparing halves alike: of a written
// fall the zero key's packed form (just the written mark), of none nothing.
func fall(seq uint64) Half {
	if seq == 0 {
		return Half{}
	}
	return Half{Flow: flow.Packed{B: 1}, Seq: seq}
}

// TestCulpritsAcrossAllocs: the walk allocates the result slice and nothing
// else — the same appends OriginalCulprits makes on an already merged
// snapshot, and none at all when there is nothing to report.
func TestCulpritsAcrossAllocs(t *testing.T) {
	cfg := Config{MaxDepthCells: 4096, GranuleCells: 1}
	r := newSetRotation(t, cfg, 1)
	empty := r.mons[0][0].Snapshot()
	if n := testing.AllocsPerRun(100, func() { CulpritsAcross([]*Snapshot{empty, empty, empty, empty}) }); n != 0 {
		t.Errorf("walk over empty snapshots allocates %.0f/op, want 0", n)
	}
	for i := 0; i < 900; i++ {
		r.mons[0][r.active].Observe(fkey(byte(i)), i)
		if i%50 == 49 {
			r.freeze(1 + i/50%2)
		}
	}
	r.freeze(1)
	snaps := r.newestPerSet(0)
	merged := r.chainMerge(0)
	if len(snaps) != 4 || len(merged.OriginalCulprits()) != 900 {
		t.Fatalf("%d sets, %d culprits; want 4 and 900", len(snaps), len(merged.OriginalCulprits()))
	}
	want := testing.AllocsPerRun(100, func() { merged.OriginalCulprits() })
	if got := testing.AllocsPerRun(100, func() { CulpritsAcross(snaps) }); got != want {
		t.Errorf("walk across 4 sets allocates %.0f/op, the staircase over one merged snapshot %.0f", got, want)
	}
}

// TestCountsAcrossMatchesCulprits: the counted walk is the list walk folded
// per flow. On the rotation fixture, after every freeze, CountsAcross over
// the newest snapshot of each set equals FlowCounts of CulpritsAcross over
// them and FlowCounts of the Merge chain's staircase — float for float,
// empty snapshots and clamped depths included — and is never nil.
func TestCountsAcrossMatchesCulprits(t *testing.T) {
	cfg := Config{MaxDepthCells: 96, GranuleCells: 2}
	const queues = 3
	empty := 0
	for seed := uint64(1); seed <= 20; seed++ {
		driveRotation(t, seed, cfg, queues, func(op int, r *setRotation) {
			for q := 0; q < queues; q++ {
				for _, snaps := range [][]*Snapshot{r.newestPerSet(q), r.newest(q, true)} {
					got := CountsAcross(snaps)
					if got == nil {
						t.Fatalf("seed %d op %d queue %d: nil counts", seed, op, q)
					}
					if len(got) == 0 {
						empty++
					}
					if want := FlowCounts(CulpritsAcross(snaps)); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d queue %d: counted walk %v, list walk %v", seed, op, q, got, want)
					}
					if want := FlowCounts(r.chainMerge(q).OriginalCulprits()); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d queue %d: counted walk %v, merge chain %v", seed, op, q, got, want)
					}
				}
			}
		})
	}
	if empty == 0 {
		t.Fatal("no walk counted nothing; the fixture no longer freezes empty sets")
	}
	if got := CountsAcross(nil); got == nil || len(got) != 0 {
		t.Fatalf("no snapshots counted %v, want an empty map", got)
	}
}

var countsSink flow.Counts

// TestCountsAcrossAllocs: with the pool warm, the counted walk allocates what
// building its result map allocates and nothing else — no culprit list, no
// interner, no count slice.
func TestCountsAcrossAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries on purpose under the race detector")
	}
	cfg := Config{MaxDepthCells: 4096, GranuleCells: 1}
	r := newSetRotation(t, cfg, 1)
	for i := 0; i < 900; i++ {
		r.mons[0][r.active].Observe(fkey(byte(i%37)), i)
		if i%50 == 49 {
			r.freeze(1 + i/50%2)
		}
	}
	r.freeze(1)
	snaps := r.newestPerSet(0)
	want := FlowCounts(CulpritsAcross(snaps))
	if len(snaps) != 4 || len(want) != 37 {
		t.Fatalf("%d sets, %d flows; want 4 and 37", len(snaps), len(want))
	}
	build := testing.AllocsPerRun(100, func() {
		m := make(flow.Counts, len(want))
		for k, n := range want {
			m[k] = n
		}
		countsSink = m // escapes, as the result does
	})
	CountsAcross(snaps) // warm the pool
	if got := testing.AllocsPerRun(100, func() { CountsAcross(snaps) }); got != build {
		t.Errorf("counted walk allocates %.0f/op, its result map %.0f", got, build)
	}
}

// uwQueue returns a monitor at the UW preset's geometry (32,768 cells in
// granules of 2) over a queue that drains, then builds with jitter to
// about 6,600 cells, as a burst leaves it at a 1 ms poll: its freeze keeps
// a staircase of about 2,000 of the 3,300 levels up to the top.
func uwQueue(tb testing.TB) *Monitor {
	tb.Helper()
	m, err := New(Config{MaxDepthCells: 32768, GranuleCells: 2}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 12))
	depth := 9000
	for ; depth > 0; depth -= 1 + rng.IntN(8) {
		m.Observe(fkey(byte(rng.IntN(52))), depth)
	}
	for depth = 0; depth < 6600; depth += rng.IntN(8) - 2 {
		m.Observe(fkey(byte(rng.IntN(52))), max(depth, 0))
	}
	return m
}

// TestMonitorFreezeOwnsItsLevels: a read collects its levels in a scratch
// the reads share and copies them out, so later reads of the same
// registers, after more packets, leave an earlier read's levels, entries
// and top as they were.
func TestMonitorFreezeOwnsItsLevels(t *testing.T) {
	m := uwQueue(t)
	first, whole := m.Freeze(), m.Snapshot()
	clone := func(s *Snapshot) *Snapshot {
		c := *s
		c.levels, c.entries = slices.Clone(s.levels), slices.Clone(s.entries)
		return &c
	}
	want, wantWhole := clone(first), clone(whole)
	rng := rand.New(rand.NewPCG(13, 14))
	for depth := 6600; depth > 100; depth -= rng.IntN(12) - 3 {
		m.Observe(fkey(byte(52+rng.IntN(52))), depth)
	}
	if again := m.Freeze(); reflect.DeepEqual(again, want) {
		t.Fatal("the second freeze read what the first did: the check below shows nothing")
	}
	m.Snapshot()
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(whole, wantWhole) {
		t.Fatal("a later read changed an earlier one")
	}
}

// TestMonitorFreezeAllocBudget: a freeze allocates its kept levels at an
// Entry and a level number each, plus the snapshot's header and size-class
// rounding; the scratch it collects them in is pooled.
func TestMonitorFreezeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	m := uwQueue(t)
	// One P: a pooled scratch is put back into the P's own slot, which a
	// goroutine that moved to another P would not find.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	levels, _ := m.Freeze().Levels()
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		m.Freeze()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	budget := uint64(unsafe.Sizeof(Entry{})+4)*uint64(len(levels)) + 12<<10
	t.Logf("top %d, %d kept levels: %d bytes a freeze, budget %d", m.Top(), len(levels), per, budget)
	if per > budget {
		t.Fatalf("a freeze of %d kept levels allocates %d bytes, budget %d", len(levels), per, budget)
	}
}

// BenchmarkMonitorFreeze prices one freeze of a UW queue monitor at a
// realistic top: about 3,300 levels up, 2,000 of them kept.
func BenchmarkMonitorFreeze(b *testing.B) {
	m := uwQueue(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Freeze().Top() != m.Top() {
			b.Fatal("top")
		}
	}
}
