package control

// This file holds MuxClient's retry-backoff machinery. Two historical bugs
// live here, fixed together:
//
//   - The exponential doubling had no shift clamp: with a large enough
//     BackoffMax (or attempt count) `d *= 2` overflowed time.Duration to a
//     negative value, which the callers interpreted as "no sleep" — a
//     failing server got hammered by a hot retry loop exactly when it
//     needed breathing room. The doubling now saturates at the cap before
//     the multiply can overflow.
//   - The jitter PRNG was a *math/rand.Rand shared by every in-flight
//     round trip. The mux client retries from many goroutines at once, so
//     concurrent retries raced on its internal state (caught by -race) or
//     contended on a guarding mutex. jitterSource is a lock-free atomic
//     splitmix64 stream: one atomic add per draw, no locks, and still
//     deterministic for a given seed so chaos tests stay reproducible.

import (
	"sync/atomic"
	"time"
)

// jitterSource is a lock-free deterministic PRNG for retry jitter. Each
// draw advances an atomic counter and mixes it through splitmix64, so any
// number of goroutines can draw concurrently without synchronizing on
// anything wider than one atomic add. For a fixed seed the set of values
// drawn is a fixed sequence (interleaving only permutes which retry gets
// which value), which keeps seeded chaos runs reproducible.
type jitterSource struct {
	state atomic.Uint64
}

func newJitterSource(seed int64) *jitterSource {
	j := &jitterSource{}
	j.state.Store(uint64(seed))
	return j
}

// Int63n returns a value uniform-ish in [0, n). n <= 0 returns 0 instead
// of panicking (math/rand.Int63n panics), so a degenerate backoff window
// can never take the retry loop down.
func (j *jitterSource) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	x := j.state.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(n))
}

// backoffDur returns the jittered exponential backoff before retry
// attempt n (n >= 1): base doubled per retry, saturating at maxD, jittered
// uniformly in [d/2, d]. The doubling is shift-clamped — once d exceeds
// maxD/2 the next double would pass the cap (or overflow time.Duration
// when maxD is near MaxInt64), so d snaps to maxD instead of multiplying.
// A maxD below base (including the previously-panicking negative case) is
// clamped up to base.
func backoffDur(base, maxD time.Duration, attempt int, j *jitterSource) time.Duration {
	if base <= 0 {
		return 0
	}
	if maxD < base {
		maxD = base
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d > maxD/2 {
			d = maxD
			break
		}
		d *= 2
	}
	if d > maxD {
		d = maxD
	}
	half := d / 2
	return half + time.Duration(j.Int63n(int64(half)+1))
}
