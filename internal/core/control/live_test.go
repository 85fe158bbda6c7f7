package control

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQueryServerBasics(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 500
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 100; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)

	qs := NewQueryServer(s)
	// Queries before Start fail fast.
	if res := qs.Interval(0, 1000, ts); res.Err == nil {
		t.Fatal("query on stopped server succeeded")
	}
	qs.Start(2)
	defer qs.Stop()

	res := qs.Interval(0, 1000, ts+1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var total float64
	for _, n := range res.Counts {
		total += n
	}
	if total < 90 || total > 110 {
		t.Fatalf("live query total %v, want ~100", total)
	}
	orig := qs.Original(0, 0, ts)
	if orig.Err != nil {
		t.Fatal(orig.Err)
	}
	if bad := qs.Interval(42, 0, 1); bad.Err == nil {
		t.Fatal("unknown port succeeded")
	}
}

// TestQueryServerConcurrentWithDataPlane drives the data plane in one
// goroutine while several query goroutines hammer the server. Run with
// -race to validate the locking discipline.
func TestQueryServerConcurrentWithDataPlane(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 200
	cfg.MaxCheckpoints = 64
	s, _ := New(cfg)
	qs := NewQueryServer(s)
	qs.Start(4)
	defer qs.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Data-plane goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ts uint64 = 1000
		for i := 0; i < 50000; i++ {
			ts += 10
			s.OnDequeue(deq(fkey(byte(i%5)), 0, ts-40, ts, (i%64)*4))
		}
		close(stop)
	}()

	// Query goroutines.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ts uint64 = 1000
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts += 500
				res := qs.Interval(0, ts, ts+1000)
				if res.Err != nil {
					t.Errorf("goroutine %d: %v", g, res.Err)
					return
				}
				if res2 := qs.Original(0, 0, ts); res2.Err != nil &&
					res2.Err.Error() != "control: no checkpoints for port 0" {
					t.Errorf("goroutine %d original: %v", g, res2.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestQueryServerStartStopIdempotent(t *testing.T) {
	s, _ := New(testConfig(0))
	qs := NewQueryServer(s)
	qs.Start(1)
	qs.Start(3) // no-op
	qs.Stop()
	qs.Stop() // no-op
	if res := qs.Interval(0, 0, 1); res.Err == nil {
		t.Fatal("query after stop succeeded")
	}
	// Restart works.
	qs.Start(1)
	defer qs.Stop()
	if res := qs.Interval(0, 5, 4); res.Err == nil {
		t.Fatal("empty interval accepted")
	}
}

// pollUntil polls until cond holds, failing the test after two seconds.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitingForSlot counts goroutines blocked on a channel inside submit
// without having reached execute: those waiting for a slot.
func waitingForSlot() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		onChan := strings.Contains(header, "[select") || strings.Contains(header, "[chan send")
		if onChan && strings.Contains(g, "(*QueryServer).submit(") && !strings.Contains(g, "(*QueryServer).execute(") {
			n++
		}
	}
	return n
}

// TestQueryServerSlots holds port 0's history lock so queries block inside
// execute, and checks the slot contract: at most Start's count execute at
// once, Stop fails a query still waiting for a slot at once, and Stop
// returns only after the executing queries finish — with their answers.
func TestQueryServerSlots(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 500
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 100; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	wantInterval, err := s.QueryInterval(0, 1000, ts+1)
	if err != nil {
		t.Fatal(err)
	}
	wantOriginal, err := s.QueryOriginal(0, 0, ts)
	if err != nil {
		t.Fatal(err)
	}

	qs := NewQueryServer(s)
	qs.Start(2)
	ps := s.ports[0]
	ps.mu.Lock()
	locked := true
	defer func() {
		if locked {
			ps.mu.Unlock()
		}
		qs.Stop()
	}()

	interval := make(chan QueryResult, 1)
	original := make(chan QueryResult, 1)
	go func() { interval <- qs.Interval(0, 1000, ts+1) }()
	go func() { original <- qs.Original(0, 0, ts) }()
	pollUntil(t, "two queries executing", func() bool { return qs.met.inflight.Load() == 2 })

	third := make(chan QueryResult, 1)
	go func() { third <- qs.Interval(0, 1000, ts+1) }()
	pollUntil(t, "a third query waiting for a slot", func() bool { return waitingForSlot() == 1 })
	if got := qs.met.inflight.Load(); got != 2 {
		t.Fatalf("inflight = %d with a query waiting, want 2", got)
	}

	stopped := make(chan struct{})
	go func() {
		qs.Stop()
		close(stopped)
	}()
	select {
	case res := <-third:
		if res.Err == nil || res.Err.Error() != "control: query server stopped" {
			t.Fatalf("waiting query after Stop: %+v, want query server stopped", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop left the waiting query waiting")
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while two queries were still executing")
	case res := <-interval:
		t.Fatalf("interval answered while the history was locked: %+v", res)
	case res := <-original:
		t.Fatalf("original answered while the history was locked: %+v", res)
	default:
	}

	ps.mu.Unlock()
	locked = false
	<-stopped
	if res := <-interval; res.Err != nil || !reflect.DeepEqual(res.Counts, wantInterval) {
		t.Fatalf("interval = %+v, want %v", res, wantInterval)
	}
	if res := <-original; res.Err != nil || !reflect.DeepEqual(res.Counts, wantOriginal) {
		t.Fatalf("original = %+v, want %v", res, wantOriginal)
	}
	if got := qs.met.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after Stop, want 0", got)
	}
}
