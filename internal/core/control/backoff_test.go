package control

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"printqueue/internal/faultnet"
)

// TestBackoffOverflowClamp pins the shift-clamp fix: before it, enough
// doublings (or a cap near MaxInt64) overflowed time.Duration negative,
// which the retry loop read as "no sleep" — a hot retry loop against an
// already-failing server. Every attempt count must now stay in (0, cap].
func TestBackoffOverflowClamp(t *testing.T) {
	j := newJitterSource(1)
	huge := time.Duration(math.MaxInt64)
	for attempt := 1; attempt <= 200; attempt++ {
		d := backoffDur(DefaultBackoffBase, huge, attempt, j)
		if d <= 0 {
			t.Fatalf("attempt %d with cap MaxInt64: backoff %v, want > 0 (overflowed)", attempt, d)
		}
	}
	for attempt := 1; attempt <= 200; attempt++ {
		d := backoffDur(DefaultBackoffBase, DefaultBackoffMax, attempt, j)
		if d <= 0 || d > DefaultBackoffMax {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, DefaultBackoffMax)
		}
	}
	// Saturation: far past the doubling range the backoff must sit in the
	// jitter window of the cap, [max/2, max].
	if d := backoffDur(time.Millisecond, time.Second, 1000, j); d < 500*time.Millisecond || d > time.Second {
		t.Fatalf("saturated backoff %v outside [500ms, 1s]", d)
	}
	// A cap below base (the previously-panicking degenerate config) clamps
	// up to base instead of inverting the window.
	if d := backoffDur(20*time.Millisecond, -time.Second, 5, j); d < 10*time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("negative-cap backoff %v outside [10ms, 20ms]", d)
	}
	if d := backoffDur(0, time.Second, 3, j); d != 0 {
		t.Fatalf("disabled backoff slept %v", d)
	}
}

// TestClientBackoffOverflow drives the same overflow through the client's
// backoff method, as a caller with a huge BackoffMax would.
func TestClientBackoffOverflow(t *testing.T) {
	huge := time.Duration(math.MaxInt64)
	mc := &MuxClient{backoffBase: DefaultBackoffBase, backoffMax: huge, jit: newJitterSource(1)}
	for attempt := 1; attempt <= 128; attempt++ {
		if d := mc.backoff(attempt); d <= 0 {
			t.Fatalf("MuxClient attempt %d: backoff %v, want > 0", attempt, d)
		}
	}
}

// TestJitterSourceParallel hammers one jitter source from many goroutines;
// -race proves draws need no external locking (the bug: a shared
// math/rand.Rand raced when concurrent mux round trips retried at once).
func TestJitterSourceParallel(t *testing.T) {
	j := newJitterSource(7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if v := j.Int63n(1000); v < 0 || v >= 1000 {
					t.Errorf("Int63n(1000) = %d out of range", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if j.Int63n(0) != 0 || j.Int63n(-5) != 0 {
		t.Fatal("Int63n(n<=0) must return 0, not panic")
	}
}

// TestChaosParallelRetryJitter forces many concurrent mux round trips into
// their retry loops through a fault-injecting listener that resets
// connections, so backoff jitter is drawn from many goroutines at once.
// Under -race this fails on the old shared-*rand.Rand implementation.
func TestChaosParallelRetryJitter(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{
		Seed:  chaosSeed(t),
		Reset: 0.3,
	}, ServeOptions{})
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     500 * time.Millisecond,
		MaxRetries:  6,
		BackoffBase: time.Microsecond, // keep the test fast; jitter still drawn per retry
		BackoffMax:  time.Millisecond,
		Seed:        chaosSeed(t),
	})
	if err != nil {
		// The initial dial itself may be reset by the fault config; retry a
		// few times — the faults are probabilistic per connection.
		for i := 0; i < 20 && err != nil; i++ {
			c, err = DialMuxOpts(srv.Addr().String(), DialOptions{
				Timeout: 500 * time.Millisecond, MaxRetries: 6,
				BackoffBase: time.Microsecond, BackoffMax: time.Millisecond,
				Seed: chaosSeed(t) + int64(i),
			})
		}
		if err != nil {
			t.Fatalf("dial never survived the fault injector: %v", err)
		}
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Errors are fine — the point is concurrent retries racing
				// on the jitter source; correctness of answers is covered
				// by the other chaos tests.
				counts, err := c.Interval(0, 1000, ts+1)
				if err == nil && len(counts) == 0 {
					t.Error("successful query returned no counts")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Retries() == 0 {
		t.Fatal("fault injector produced no retries; the test exercised nothing")
	}
}

// TestDialOptionsNegativeBackoffMax pins that a pathological negative
// BackoffMax cannot panic the jitter draw (the old code fed rand.Int63n a
// non-positive bound) and still produces a sane sleep.
func TestDialOptionsNegativeBackoffMax(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close() // every round trip fails -> client retries
		}
	}()
	c, err := DialMuxOpts(ln.Addr().String(), DialOptions{
		Timeout:     200 * time.Millisecond,
		MaxRetries:  3,
		BackoffBase: time.Microsecond,
		BackoffMax:  -time.Second,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slept := make(chan time.Duration, 16)
	c.sleep = func(d time.Duration) { slept <- d }
	if _, err := c.Interval(0, 0, 10); err == nil {
		t.Fatal("query against a closing server succeeded")
	}
	close(slept)
	n := 0
	for d := range slept {
		n++
		if d <= 0 || d > time.Microsecond {
			t.Fatalf("sleep %v outside (0, base] under negative BackoffMax", d)
		}
	}
	if n == 0 {
		t.Fatal("no backoff sleeps recorded")
	}
}
