package main

import (
	"math/rand"
	"sync"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/fleet"
	"printqueue/internal/flow"
)

// A diagnosis asks who shared a victim's queue. Closed-loop phases issue
// fleet.Collector.Diagnose from diagClients goroutines, each sending its
// next operation when the last returned; the live phase issues
// MuxClient.Batch to a schedule. Operations are drawn in set-up order from
// the seed; the program sees only the intervals.

// memoHitNs separates a mirror's memoized answer (a map lookup, ~0.1 µs)
// from a computed one (tens of µs at least) by the HopResult's own latency:
// the memo has no counter to read.
const memoHitNs = 5000

type diagOp struct {
	hops       []fleet.HopRef
	start, end uint64
	shift      uint64 // the replay round's timestamp shift, to reach ground truth
	port       int    // the victim's port on every hop's switch
}

type diagResult struct {
	latUs    float64
	failed   bool
	culprits [][]flow.Key         // per hop, ranked
	counts   []map[string]float64 // per hop; kept only for cross-checked ops
}

// opGen draws operations for one stack from the seed.
type opGen struct {
	st  *stack
	rng *rand.Rand
}

func newOpGen(st *stack, seed uint64, stream int64) *opGen {
	return &opGen{st: st, rng: rand.New(rand.NewSource(int64(seed)*7919 + stream))}
}

func (g *opGen) hopsFor(port int) []fleet.HopRef {
	hops := make([]fleet.HopRef, len(g.st.sws))
	for k, sw := range g.st.sws {
		hops[k] = fleet.HopRef{SwitchID: sw.id, Port: port}
	}
	return hops
}

// victimOp is the diagnosis of one victim of port p in a round rng draws:
// its own queueing interval, asked of every hop.
func (g *opGen) victimOp(rng *rand.Rand, p *portInput, idx int32) diagOp {
	plan := g.st.sws[0].plan
	shift := uint64(rng.Intn(plan.rounds)) * plan.span
	rec := p.gt.Record(int(idx))
	return diagOp{hops: g.hopsFor(p.port), port: p.port, shift: shift,
		start: rec.EnqTimestamp + shift, end: rec.DeqTimestamp() + shift}
}

// narrow returns n victims drawn over the first switch's whole history —
// every port, every round — taking the queue-depth groups in turn. Which
// victims is decided by the traffic alone, so every run scores the same
// questions and accuracy is exact; the run's seed draws the order they are
// asked in, which decides what the caches hold when each one's turn comes.
func (g *opGen) narrow(n int) []diagOp {
	set := rand.New(rand.NewSource(trafficSeed))
	ports := g.st.sws[0].in.ports
	ops := make([]diagOp, n)
	for i := range ops {
		p := ports[set.Intn(len(ports))]
		group := p.buckets[i%len(p.buckets)]
		ops[i] = g.victimOp(set, p, group[set.Intn(len(group))])
	}
	g.rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// wide draws n windows of wideWindowNs over the whole history.
func (g *opGen) wide(n int) []diagOp {
	sw := g.st.sws[0]
	ops := make([]diagOp, n)
	for i := range ops {
		p := sw.in.ports[g.rng.Intn(len(sw.in.ports))]
		lo, hi := p.deq[0], sw.plan.finalFreeze(p.port)
		start, end := lo, hi
		if hi-lo > wideWindowNs {
			start = lo + uint64(g.rng.Int63n(int64(hi-lo-wideWindowNs)))
			end = start + wideWindowNs
		}
		ops[i] = diagOp{hops: g.hopsFor(p.port), port: p.port, start: start, end: end}
	}
	return ops
}

// dash cycles n operations over dashIntervals fixed victims — the repeated
// question of a dashboard — at evenly spaced ranks of queueing delay, so
// the set spans short and long intervals alike whatever the seed.
func (g *opGen) dash(n int) []diagOp {
	ports := g.st.sws[0].in.ports
	fixed := make([]diagOp, dashIntervals)
	for i := range fixed {
		p := ports[i%len(ports)]
		rank := (2*i + 1) * len(p.byDelay) / (2 * dashIntervals)
		fixed[i] = g.victimOp(g.rng, p, p.byDelay[rank])
	}
	ops := make([]diagOp, n)
	for i := range ops {
		ops[i] = fixed[i%len(fixed)]
	}
	return ops
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	ops     []diagOp
	res     []diagResult
	wallNs  int64
	hops    int // hop answers received
	mirror  int // of them, served by a mirror
	memoHit int // of them, fast enough to be memo hits
}

func (ph *phaseResult) latencies() []float64 {
	out := make([]float64, 0, len(ph.res))
	for _, r := range ph.res {
		if !r.failed {
			out = append(out, r.latUs)
		}
	}
	return out
}

func (ph *phaseResult) failed() int {
	n := 0
	for _, r := range ph.res {
		if r.failed {
			n++
		}
	}
	return n
}

// runPhase issues ops from diagClients closed-loop clients. keep retains
// what scoring and cross-checking need (narrow phases only).
func (st *stack) runPhase(name string, ops []diagOp, keep bool, rec *recorder) *phaseResult {
	ph := &phaseResult{ops: ops, res: make([]diagResult, len(ops))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < diagClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ln := rec.lane(name + ".client")
			hops, mirror, memo := 0, 0, 0
			for i := c; i < len(ops); i += diagClients {
				op := &ops[i]
				tok := ln.begin("fleet.diagnose."+name, uint64(i))
				s := time.Now()
				d, err := st.col.Diagnose("victim", op.hops, op.start, op.end, topK)
				lat := time.Since(s)
				ln.end(tok)
				r := &ph.res[i]
				r.latUs = float64(lat.Nanoseconds()) / 1e3
				if err != nil || d.Partial {
					r.failed = true
					continue
				}
				for h := range d.Hops {
					hops++
					if d.Hops[h].Mirrored {
						mirror++
						if d.Hops[h].Latency < memoHitNs {
							memo++
						}
					}
				}
				if keep {
					r.culprits = make([][]flow.Key, len(d.Hops))
					for h := range d.Hops {
						for _, cu := range d.Hops[h].Culprits {
							r.culprits[h] = append(r.culprits[h], cu.Flow)
						}
					}
					if i%crossCheckEach == 0 {
						r.counts = make([]map[string]float64, len(d.Hops))
						for h := range d.Hops {
							r.counts[h] = d.Hops[h].Counts
						}
					}
				}
			}
			mu.Lock()
			ph.hops, ph.mirror, ph.memoHit = ph.hops+hops, ph.mirror+mirror, ph.memoHit+memo
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wallNs = time.Since(t0).Nanoseconds()
	return ph
}

// score grades the narrow answers' top-k against ground truth, per hop:
// precision is the share of reported culprits in the hop's true top-k over
// the interval, recall the share of the true top-k reported — the rule of
// experiments.ScoreChainAttribution. It returns the means over hops and
// operations.
func (st *stack) score(ph *phaseResult) (precision, recall float64, n int) {
	var pSum, rSum float64
	for i := range ph.res {
		r, op := &ph.res[i], &ph.ops[i]
		if r.failed || r.culprits == nil {
			continue
		}
		for h, reported := range r.culprits {
			gt := st.sws[h].in.ports[op.port].gt
			truth := gt.CountsInInterval(op.start-op.shift, op.end-op.shift).TopK(topK)
			if len(truth) == 0 || len(reported) == 0 {
				continue
			}
			set := make(map[flow.Key]bool, len(truth))
			for _, e := range truth {
				set[e.Flow] = true
			}
			hits := 0
			for _, k := range reported {
				if set[k] {
					hits++
				}
			}
			pSum += float64(hits) / float64(len(reported))
			rSum += float64(hits) / float64(len(truth))
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return pSum / float64(n), rSum / float64(n), n
}

// crossCheck re-asks the kept operations of every hop's switch directly
// over the wire and returns how many answers were attempted and how many
// were not bit-identical to what the collector gave.
func (st *stack) crossCheck(ph *phaseResult) (attempted, mismatched int) {
	for i := range ph.res {
		r, op := &ph.res[i], &ph.ops[i]
		if r.counts == nil {
			continue
		}
		for h, got := range r.counts {
			attempted++
			direct, err := st.sws[h].mux.Interval(op.port, op.start, op.end)
			if err != nil || !sameCounts(direct, got) {
				mismatched++
			}
		}
	}
	return attempted, mismatched
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// rank turns wire-form counts into the top-k flow keys, as fleet's own
// (unexported) culprit ranking does.
func rank(counts map[string]float64, k int) ([]flow.Key, error) {
	fc := make(flow.Counts, len(counts))
	for s, n := range counts {
		key, err := flow.ParseKey(s)
		if err != nil {
			return nil, err
		}
		fc[key] += n
	}
	top := fc.TopK(k)
	out := make([]flow.Key, len(top))
	for i, e := range top {
		out[i] = e.Flow
	}
	return out, nil
}

// liveIssuer is the open-loop query side of live_switch: n diagnoses at
// rate per second over the switch's MuxClient. A diagnosis is one Batch of
// three queries about a ground-truth victim whose dequeue the harness's
// subscriber has already seen covered: direct [enq, deq), indirect
// [regimeStart, deq), Original(port, 0, deq). Nine victims in ten come from
// the newest 32 checkpoints (the hot ring), one from at least 100
// checkpoints back (the cold tier, or straddling the ring's start).
// Latency is measured from the time the diagnosis was due.
type liveIssuer struct {
	sw     *swStack
	rng    *rand.Rand
	rate   float64
	period uint64

	ops    []diagOp
	res    []diagResult
	lateNs []float64
	wallNs int64
}

const (
	liveHotCheckpoints  = 32
	liveColdCheckpoints = 100
)

func newLiveIssuer(sw *swStack, seed uint64, n int, rate float64) *liveIssuer {
	return &liveIssuer{sw: sw, rng: rand.New(rand.NewSource(int64(seed)*7919 + 3)), rate: rate,
		period: sw.sys.Config().PollPeriodNs, ops: make([]diagOp, n), res: make([]diagResult, n)}
}

// pick draws the next victim on port among those the subscriber's frontier
// covers; ok is false until the port has retired a checkpoint.
func (li *liveIssuer) pick(port int) (op diagOp, regime uint64, ok bool) {
	p := li.sw.in.ports[port]
	front := li.sw.sub.frontier[port].Load()
	first := p.gt.Record(int(p.victims[0])).DeqTimestamp()
	if front < first {
		return op, 0, false
	}
	lo, hi := first, front
	if back := liveColdCheckpoints * li.period; li.rng.Intn(10) == 0 && front > first+back {
		hi = front - back
	} else if back := liveHotCheckpoints * li.period; front > first+back {
		lo = front - back
	}
	u := lo
	if hi > lo {
		u += uint64(li.rng.Int63n(int64(hi - lo + 1)))
	}
	span := li.sw.plan.span
	round, off := u/span, u%span
	vi := p.victimAtOrBefore(off)
	if vi < 0 {
		// No victim this early in the round: the newest one of the round
		// before is still at or before u.
		round--
		vi = len(p.victims) - 1
	}
	idx := int(p.victims[vi])
	rec := p.gt.Record(idx)
	shift := round * span
	return diagOp{port: port, shift: shift, start: rec.EnqTimestamp + shift, end: rec.DeqTimestamp() + shift},
		p.regime[idx] + shift, true
}

// run issues the schedule; it returns when every diagnosis has answered.
func (li *liveIssuer) run(rec *recorder) {
	ln := rec.lane("live.issuer")
	var wg sync.WaitGroup
	perNs := 1e9 / li.rate
	ports := len(li.sw.in.ports)
	// The schedule starts once every port has retired its first periodic
	// checkpoint; before that there is nothing covered to ask about.
	for port := 0; port < ports; port++ {
		for {
			if _, _, ok := li.pick(port); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	start := nowNs()
	for i := range li.ops {
		due := start + int64(float64(i)*perNs)
		if now := nowNs(); now < due {
			time.Sleep(time.Duration(due - now))
		}
		op, regime, _ := li.pick(i % ports)
		li.ops[i] = op
		li.lateNs = append(li.lateNs, float64(nowNs()-due))
		tok := ln.begin("control.wire.batch3.send", uint64(i))
		wg.Add(1)
		go li.ask(i, op, regime, due, &wg)
		ln.end(tok)
	}
	wg.Wait()
	li.wallNs = nowNs() - start
}

func (li *liveIssuer) ask(i int, op diagOp, regime uint64, due int64, wg *sync.WaitGroup) {
	defer wg.Done()
	r := &li.res[i]
	out, err := li.sw.mux.Batch([]control.BatchQuery{
		{Kind: control.IntervalQuery, Port: op.port, Start: op.start, End: op.end},
		{Kind: control.IntervalQuery, Port: op.port, Start: regime, End: op.end},
		{Kind: control.OriginalQuery, Port: op.port, Queue: 0, Start: op.end},
	})
	r.latUs = float64(nowNs()-due) / 1e3
	if err != nil {
		r.failed = true
		return
	}
	for _, b := range out {
		if b.Err != nil {
			r.failed = true
			return
		}
	}
	keys, err := rank(out[0].Counts, topK)
	if err != nil {
		r.failed = true
		return
	}
	r.culprits = [][]flow.Key{keys}
	if i%crossCheckEach == 0 {
		r.counts = []map[string]float64{out[0].Counts}
	}
}

// phase presents the live diagnoses as a phase, for scoring and
// cross-checking alongside the closed-loop ones.
func (li *liveIssuer) phase() *phaseResult {
	return &phaseResult{ops: li.ops, res: li.res, wallNs: li.wallNs}
}
