package flow

import (
	"math/bits"
	"math/rand/v2"
	"sync"
)

// Interner maps flow keys to dense ids in first-seen order: the first
// distinct key interned gets id 0, the next id 1, and so on, so Keys()[id]
// is the key and the id sequence depends only on the order keys were
// presented in — never on the hash. It is the one flow-interning mechanism
// of the checkpoint path (the codec's per-record dictionary, the
// Algorithm-3 cell index): open addressing with linear probing over a
// power-of-two slot table, which spares the per-lookup overhead of the
// general-purpose map. Keys are hashed and compared in their two-word packed
// form (Pack is a bijection), so a caller holding that form — a frozen read
// of the registers — interns without unpacking a key it has seen before.
//
// The hash is seeded once per process with a random value, so a crafted
// flow set cannot force long probe chains (the property the Go map's own
// random seed gives). An Interner is not safe for concurrent use; take one
// from the pool with AcquireInterner and hand it back with Release.
type Interner struct {
	// slots holds id+1 of the key living there, 0 when empty. Its length is
	// a power of two, at least twice len(keys).
	slots []int32
	// packed[id] is keys[id] packed: what a lookup hashes and compares.
	packed []Packed
	keys   []Key
	// last is the id Intern returned most recently, checked first: a burst
	// fills consecutive cells with one flow. Valid while len(keys) > 0.
	last int32
}

// internSeed randomizes slot placement per process. Ids do not depend on it.
var internSeed = [2]uint64{rand.Uint64(), rand.Uint64()}

// internHash mixes a packed key's two words into 64 bits with one 64x64→128
// multiply of the seeded words, folded — the scheme Go's runtime uses to
// hash short map keys where it has no hardware hash. Key.Hash is a stronger
// avalanche but costs ten times as much, and it is fixed-key on purpose
// (reproducible baselines) where this one must not be.
func internHash(p Packed) uint64 {
	hi, lo := bits.Mul64(p.A^internSeed[0], p.B^internSeed[1])
	return hi ^ lo
}

const internMinSlots = 64

var internerPool = sync.Pool{New: func() any { return new(Interner) }}

// AcquireInterner returns an empty Interner from the pool. Its table keeps
// the capacity earlier users grew it to, so steady-state interning does not
// allocate.
func AcquireInterner() *Interner { return internerPool.Get().(*Interner) }

// Release resets the interner and returns it to the pool. Slices obtained
// from Keys must not be used afterwards.
func (in *Interner) Release() {
	in.Reset()
	internerPool.Put(in)
}

// Intern returns the dense id of k, assigning the next one on first sight.
func (in *Interner) Intern(k Key) int32 { return in.intern(k.Pack(), &k) }

// InternPacked is Intern for a key in its packed form, unpacked only the
// first time it is seen.
func (in *Interner) InternPacked(k Packed) int32 { return in.intern(k, nil) }

// intern is Intern of k packed; key is k unpacked, or nil to unpack it if
// it is new.
func (in *Interner) intern(k Packed, key *Key) int32 {
	if len(in.packed) > 0 && in.packed[in.last] == k {
		return in.last
	}
	if 2*(len(in.packed)+1) > len(in.slots) {
		in.grow()
	}
	mask := uint64(len(in.slots) - 1)
	p := internHash(k) & mask
	for in.slots[p] != 0 {
		id := in.slots[p] - 1
		if in.packed[id] == k {
			in.last = id
			return id
		}
		p = (p + 1) & mask
	}
	id := int32(len(in.packed))
	in.packed = append(in.packed, k)
	if key != nil {
		in.keys = append(in.keys, *key)
	} else {
		in.keys = append(in.keys, k.Key())
	}
	in.slots[p] = id + 1
	in.last = id
	return id
}

// grow doubles the slot table and re-places every key.
func (in *Interner) grow() {
	n := 2 * len(in.slots)
	if n < internMinSlots {
		n = internMinSlots
	}
	in.slots = make([]int32, n)
	mask := uint64(n - 1)
	for id := range in.packed {
		p := internHash(in.packed[id]) & mask
		for in.slots[p] != 0 {
			p = (p + 1) & mask
		}
		in.slots[p] = int32(id) + 1
	}
}

// Len returns the number of distinct keys interned.
func (in *Interner) Len() int { return len(in.keys) }

// Keys returns the interned keys indexed by id. The slice is owned by the
// interner: it is valid until the next Intern, Reset or Release.
func (in *Interner) Keys() []Key { return in.keys }

// Reset empties the interner, keeping its capacity. It clears only the
// slots the interned keys occupy, so the cost follows the number of flows
// interned since the last Reset, not the table's high-water size — a pooled
// interner that once served a many-flow record stays cheap for few-flow
// ones.
func (in *Interner) Reset() {
	mask := uint64(len(in.slots) - 1)
	for id := range in.packed {
		// The key is in the table, so the probe ends at its slot; slots
		// already cleared on the way cannot stop it because it matches on
		// the id, not on emptiness.
		p := internHash(in.packed[id]) & mask
		for in.slots[p] != int32(id)+1 {
			p = (p + 1) & mask
		}
		in.slots[p] = 0
	}
	in.packed, in.keys = in.packed[:0], in.keys[:0]
}
