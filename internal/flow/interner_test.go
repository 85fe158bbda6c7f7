package flow

import (
	"math/rand"
	"testing"
)

func internKey(n uint32) Key {
	return Key{
		SrcIP: [4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)}, DstIP: [4]byte{10, 128, 0, 1},
		SrcPort: uint16(n * 7), DstPort: 443, Proto: ProtoTCP,
	}
}

// checkAgainstMap drives the interner and a map-based reference with the
// same key sequence and requires the same ids, first-seen order included.
func checkAgainstMap(t *testing.T, in *Interner, seq []Key) {
	t.Helper()
	ref := make(map[Key]int32)
	var order []Key
	for i, k := range seq {
		want, ok := ref[k]
		if !ok {
			want = int32(len(order))
			ref[k] = want
			order = append(order, k)
		}
		if got := in.Intern(k); got != want {
			t.Fatalf("key %d of %d: id %d, reference %d", i, len(seq), got, want)
		}
	}
	if in.Len() != len(order) {
		t.Fatalf("Len %d, reference %d", in.Len(), len(order))
	}
	for id, k := range in.Keys() {
		if k != order[id] {
			t.Fatalf("Keys()[%d] = %v, reference %v", id, k, order[id])
		}
	}
}

func TestInternerMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct{ flows, n int }{{1, 100}, {3, 5000}, {40, 5000}, {5000, 20000}, {50000, 60000}} {
		seq := make([]Key, shape.n)
		for i := range seq {
			seq[i] = internKey(uint32(rng.Intn(shape.flows)))
			if i > 0 && rng.Intn(3) == 0 {
				seq[i] = seq[i-1] // runs of one flow: the last-key shortcut
			}
		}
		checkAgainstMap(t, new(Interner), seq)
	}
}

// TestInternerForcedCollisions interns keys that all hash to one home slot
// of a table that never grows, so every one of them probes past all the
// earlier ones.
func TestInternerForcedCollisions(t *testing.T) {
	const slots = 1 << 10
	var colliding []Key
	for n := uint32(0); len(colliding) < slots/2-1; n++ {
		if k := internKey(n); internHash(k.Pack())&(slots-1) == 7 {
			colliding = append(colliding, k)
		}
	}
	in := &Interner{slots: make([]int32, slots)}
	seq := append(append([]Key(nil), colliding...), colliding...)
	checkAgainstMap(t, in, seq)
	if len(in.slots) != slots {
		t.Fatalf("table grew to %d slots; the keys were meant to fit in %d", len(in.slots), slots)
	}
	// Reset has to find every key at the end of the same long chain, past
	// slots it has already cleared.
	in.Reset()
	for p, s := range in.slots {
		if s != 0 {
			t.Fatalf("slot %d still holds %d after Reset", p, s)
		}
	}
	checkAgainstMap(t, in, seq)
}

// TestInternerGrowthAcrossReset: capacity grown for a big key set serves a
// small one after Reset (and the big one again), with ids restarting at 0.
func TestInternerGrowthAcrossReset(t *testing.T) {
	in := new(Interner)
	big := make([]Key, 10000)
	for i := range big {
		big[i] = internKey(uint32(i))
	}
	small := []Key{internKey(9999), internKey(3), internKey(9999), internKey(20000)}
	checkAgainstMap(t, in, big)
	grown := len(in.slots)
	if grown < 2*len(big) {
		t.Fatalf("%d slots for %d keys: load factor above 1/2", grown, len(big))
	}
	in.Reset()
	if in.Len() != 0 || len(in.Keys()) != 0 {
		t.Fatalf("Reset left %d keys", in.Len())
	}
	checkAgainstMap(t, in, small)
	in.Reset()
	checkAgainstMap(t, in, big)
	if len(in.slots) != grown {
		t.Fatalf("table went from %d to %d slots re-interning the same keys", grown, len(in.slots))
	}
}

// TestInternerPooledZeroAllocs pins the steady state: a warm pooled
// interner interns and resets without allocating.
func TestInternerPooledZeroAllocs(t *testing.T) {
	keys := make([]Key, 3000)
	for i := range keys {
		keys[i] = internKey(uint32(i % 700))
	}
	in := new(Interner)
	round := func() {
		for _, k := range keys {
			in.Intern(k)
		}
		in.Reset()
	}
	round() // warm: grow the table and the key slice
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("warm intern+reset allocates %.1f times per round, want 0", allocs)
	}
	if raceEnabled {
		return
	}
	// Through the pool, as the codec and the index use it.
	pooled := func() {
		p := AcquireInterner()
		for _, k := range keys {
			p.Intern(k)
		}
		p.Release()
	}
	pooled()
	if allocs := testing.AllocsPerRun(50, pooled); allocs > 0.5 {
		// A GC between runs may empty the pool once; steady state is 0.
		t.Fatalf("pooled intern allocates %.1f times per round, want 0", allocs)
	}
}

func BenchmarkInterner(b *testing.B) {
	keys := make([]Key, 16384)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = internKey(uint32(rng.Intn(2000)))
	}
	b.Run("interner", func(b *testing.B) {
		in := new(Interner)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				in.Intern(k)
			}
			in.Reset()
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[Key]int32, 64)
			for _, k := range keys {
				if _, ok := m[k]; !ok {
					m[k] = int32(len(m))
				}
			}
		}
	})
}
