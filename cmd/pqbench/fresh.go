package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"printqueue/internal/core/control"
)

// Freshness is dequeue-to-queryable lag. One sample per retired checkpoint:
//
//	(first instant the layer shows the checkpoint) − (wall time the first
//	packet with deq >= FreezeTime was handed to the program)
//
// so the window's own length is excluded and every queue the checkpoint
// waited in is included. Three layers are watched: the switch's own
// history (System.Checkpoints, traced runs only), the harness's checkpoint
// subscriber (frame received), and the collector (QueryPath answers the
// checkpoint's last microsecond from the mirror, fresh).

const (
	freshPoll    = 100 * time.Microsecond
	freshTimeout = time.Second // a checkpoint not queryable by then is a failed operation
)

// subscriber is the harness's own DialCheckpoints consumer of one switch.
// It never decodes a payload: it notes which expected checkpoint each frame
// carries and when, and hands the checkpoint on to the collector probe.
type subscriber struct {
	sw   *swStack
	addr string

	mu      sync.Mutex
	cur     *control.CheckpointStream
	stopped bool
	done    chan struct{}

	frames  atomic.Int64
	resyncs atomic.Int64
	// frontier[port] is the newest FreezeTime seen on the stream: every
	// dequeue before it is covered by a checkpoint the switch has retired.
	frontier []atomic.Uint64
	// probe, while set, receives each expected checkpoint once, as its
	// frame arrives.
	probe atomic.Pointer[freshProbe]
}

func newSubscriber(sw *swStack) *subscriber {
	s := &subscriber{sw: sw, addr: sw.addr(), done: make(chan struct{}), frontier: make([]atomic.Uint64, len(sw.in.ports))}
	go s.run()
	return s
}

func (s *subscriber) run() {
	defer close(s.done)
	for {
		var since uint64
		for i := range s.frontier {
			if f := s.frontier[i].Load(); i == 0 || f < since {
				since = f
			}
		}
		st, err := control.DialCheckpoints(s.addr, since, control.DialOptions{})
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			if err == nil {
				st.Close()
			}
			return
		}
		s.cur = st
		s.mu.Unlock()
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		for {
			f, err := st.Next()
			if err != nil {
				if errors.Is(err, control.ErrStreamResync) {
					s.resyncs.Add(1)
				}
				break
			}
			s.frames.Add(1)
			s.note(f.Port, f.FreezeTime)
		}
		st.Close()
	}
}

func (s *subscriber) note(port int, freeze uint64) {
	if port < 0 || port >= len(s.frontier) || freeze <= s.frontier[port].Load() {
		return // a replayed duplicate after a resync
	}
	s.frontier[port].Store(freeze)
	if fp := s.probe.Load(); fp != nil {
		if f := s.sw.plan.lookup(port, freeze); f != nil {
			fp.jobs <- freshJob{sw: s.sw, f: f, streamed: nowNs()}
		}
	}
}

func (s *subscriber) stop() {
	s.mu.Lock()
	s.stopped = true
	if s.cur != nil {
		s.cur.Close()
	}
	s.mu.Unlock()
	<-s.done
}

// freshJob is one expected checkpoint whose frame the subscriber has seen.
type freshJob struct {
	sw       *swStack
	f        *flip
	streamed int64
}

// freshSample is one checkpoint's lag at the subscriber (or, from the
// watcher, in the switch's own history) and at the collector.
type freshSample struct {
	hop, port           int
	tail                bool // fed in the plan's paced tail
	streamMs, collectMs float64
}

// freshProbe collects the freshness samples of one ingest.
type freshProbe struct {
	st *stack
	// jobs buffers checkpoints between the subscribers and the one probing
	// goroutine; sized to the whole plan so a subscriber never blocks on a
	// probe that is waiting out a slow checkpoint.
	jobs  chan freshJob
	abort chan struct{}
	done  chan struct{}
	want  int

	mu       sync.Mutex
	samples  []freshSample
	atSwitch []freshSample // collectMs unused: the switch's own history
	timeouts int
	seen     int

	watchWG sync.WaitGroup
}

// startProbe arms freshness sampling for the coming feed. watchSwitch adds
// the System.Checkpoints watcher (one more polling goroutine per switch, so
// traced runs only).
func (st *stack) startProbe(watchSwitch bool) *freshProbe {
	fp := &freshProbe{st: st, abort: make(chan struct{}), done: make(chan struct{})}
	for _, sw := range st.sws {
		fp.want += len(sw.plan.flips)
	}
	fp.jobs = make(chan freshJob, fp.want)
	for _, sw := range st.sws {
		if sw.sub != nil {
			sw.sub.probe.Store(fp)
		}
		if watchSwitch {
			fp.watchWG.Add(1)
			go fp.watch(sw)
		}
	}
	go fp.run()
	return fp
}

// probeSlots bounds the checkpoints probed at once. Ports flip together, so
// frames arrive in bursts, and one probe costs what a first query of a new
// checkpoint costs (a decode and an index build): probed one after another,
// the last of a burst would be charged the probes before it.
const probeSlots = 16

// run probes the collector for each checkpoint as its frame arrives.
func (fp *freshProbe) run() {
	defer close(fp.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	slots := make(chan struct{}, probeSlots)
	for n := 0; n < fp.want; n++ {
		var job freshJob
		select {
		case job = <-fp.jobs:
		case <-fp.abort:
			return
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			fp.probe(job)
		}()
	}
}

func (fp *freshProbe) probe(job freshJob) {
	fed := job.f.fedAt.Load()
	okay := fp.st.awaitMirrored(job.sw, job.f.port, job.f.freeze, time.Now().Add(freshTimeout))
	at := nowNs()
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.seen++
	if fed == 0 || !okay {
		fp.timeouts++
		return
	}
	fp.samples = append(fp.samples, freshSample{hop: job.sw.hop, port: job.f.port, tail: job.sw.plan.inTail(job.f),
		streamMs: float64(job.streamed-fed) / 1e6, collectMs: float64(at-fed) / 1e6})
}

// watch samples when each expected checkpoint becomes visible in the
// switch's own history.
func (fp *freshProbe) watch(sw *swStack) {
	defer fp.watchWG.Done()
	deadline := time.Now().Add(10 * time.Minute)
	for _, f := range sw.plan.flips {
		for f.fedAt.Load() == 0 {
			if fp.finished() || time.Now().After(deadline) {
				return
			}
			time.Sleep(freshPoll)
		}
		for {
			cps := sw.sys.Checkpoints(f.port)
			if n := len(cps); n > 0 && cps[n-1].FreezeTime >= f.freeze {
				break
			}
			if fp.finished() {
				return
			}
			time.Sleep(freshPoll)
		}
		ms := float64(nowNs()-f.fedAt.Load()) / 1e6
		fp.mu.Lock()
		fp.atSwitch = append(fp.atSwitch, freshSample{hop: sw.hop, port: f.port, tail: sw.plan.inTail(f), streamMs: ms})
		fp.mu.Unlock()
	}
}

// awaitSeen blocks until n checkpoints have been probed (or timed out), or
// until the wait itself has lasted timeout.
func (fp *freshProbe) awaitSeen(n int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		fp.mu.Lock()
		seen := fp.seen
		fp.mu.Unlock()
		if seen >= n {
			return
		}
		time.Sleep(freshPoll)
	}
}

func (fp *freshProbe) finished() bool {
	select {
	case <-fp.done:
		return true
	default:
		return false
	}
}

// wait blocks until every expected checkpoint has been probed, or until
// grace has passed with checkpoints still unseen: those never reached the
// subscriber and count as failed.
func (fp *freshProbe) wait(grace time.Duration) (missing int) {
	select {
	case <-fp.done:
	case <-time.After(grace):
		close(fp.abort)
		<-fp.done
	}
	fp.watchWG.Wait()
	for _, sw := range fp.st.sws {
		if sw.sub != nil {
			sw.sub.probe.Store(nil)
		}
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.want - fp.seen
}
