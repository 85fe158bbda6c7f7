package main

import (
	"sort"
	"sync/atomic"
	"time"

	"printqueue/internal/pktrec"
)

// epoch anchors every wall-clock reading of the harness to one monotonic
// origin (the process start, so setup_s starts there too).
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// flip is one checkpoint the program is expected to retire: the periodic
// flips the feed will trigger, then each port's final FinalizePort freeze.
// The flip rule is control.System's own (first packet with
// deq-lastFlip >= period; FreezeTime is that packet's dequeue time), worked
// out in set-up so the feeder only has to stamp wall times.
type flip struct {
	port   int
	freeze uint64
	// at is how many of the switch's packets are fed before the trigger
	// packet; the final freezes sit at the total.
	at int64
	// fedAt is the wall time (nowNs) the trigger packet — the first packet
	// with deq >= freeze — was handed to the program. 0 = not yet.
	fedAt atomic.Int64
}

// feedPlan is the replay schedule of one switch: its recorded stream,
// replayed rounds times with timestamps shifted by round*span.
type feedPlan struct {
	sw *switchInput
	// The first tailFrom rounds are the workload's own feed; the rounds from
	// tailFrom on are the paced tail that freshness is sampled in (none for
	// a workload that is paced throughout, or on a ladder rung).
	rounds, tailFrom int
	span             uint64
	total            int64
	flips            []*flip   // ascending at
	byPort           [][]*flip // per port, ascending freeze

	// roundWall[r] and roundCPU[r] are the wall clock (nowNs) and the
	// process CPU clock at the start of round r; the last entry closes the
	// last round.
	roundWall, roundCPU []int64
}

func newFeedPlan(sw *switchInput, rounds, tail int, span, period uint64) *feedPlan {
	n := int64(len(sw.stream))
	tailFrom := rounds
	rounds += tail
	pl := &feedPlan{sw: sw, rounds: rounds, tailFrom: tailFrom, span: span, total: n * int64(rounds), byPort: make([][]*flip, len(sw.ports))}
	for _, p := range sw.ports {
		last := p.deq[0] // the guard checkpoint and the first packet both set lastFlip here
		r := 0
		for {
			target := last + period
			j := -1
			for ; r < rounds; r++ {
				shift := uint64(r) * span
				if p.deq[len(p.deq)-1]+shift < target {
					continue
				}
				j = sort.Search(len(p.deq), func(i int) bool { return p.deq[i]+shift >= target })
				break
			}
			if j < 0 {
				break
			}
			f := &flip{port: p.port, freeze: p.deq[j] + uint64(r)*span, at: int64(r)*n + int64(p.pos[j])}
			pl.flips = append(pl.flips, f)
			pl.byPort[p.port] = append(pl.byPort[p.port], f)
			last = f.freeze
		}
	}
	sort.Slice(pl.flips, func(i, j int) bool { return pl.flips[i].at < pl.flips[j].at })
	for _, p := range sw.ports {
		f := &flip{port: p.port, freeze: pl.finalFreeze(p.port), at: pl.total}
		pl.flips = append(pl.flips, f)
		pl.byPort[p.port] = append(pl.byPort[p.port], f)
	}
	return pl
}

// finalFreeze is the time the port is finalized at once the feed ends: one
// past its own last dequeue, which keeps the port's timestamps monotone.
func (pl *feedPlan) finalFreeze(port int) uint64 {
	p := pl.sw.ports[port]
	return p.deq[len(p.deq)-1] + uint64(pl.rounds-1)*pl.span + 1
}

// inTail reports whether the flip's trigger packet is fed in the paced tail.
func (pl *feedPlan) inTail(f *flip) bool {
	return f.at >= int64(pl.tailFrom)*int64(len(pl.sw.stream))
}

// flipsBefore counts the flips whose trigger packet is fed before round r.
func (pl *feedPlan) flipsBefore(r int) int {
	at := int64(r) * int64(len(pl.sw.stream))
	return sort.Search(len(pl.flips), func(i int) bool { return pl.flips[i].at >= at })
}

// roundRates returns packets per wall second and per CPU second of each
// completed round in [from, to).
func (pl *feedPlan) roundRates(from, to int) (wall, cpu []float64) {
	n := float64(len(pl.sw.stream))
	for r := from; r < to && r+1 < len(pl.roundWall); r++ {
		if d := pl.roundWall[r+1] - pl.roundWall[r]; d > 0 {
			wall = append(wall, n/(float64(d)/1e9))
		}
		if d := pl.roundCPU[r+1] - pl.roundCPU[r]; d > 0 {
			cpu = append(cpu, n/(float64(d)/1e9))
		}
	}
	return wall, cpu
}

// lookup finds the expected flip of a port by its FreezeTime — how a
// checkpoint frame or a retired checkpoint is matched to its feed time.
func (pl *feedPlan) lookup(port int, freeze uint64) *flip {
	if port < 0 || port >= len(pl.byPort) {
		return nil
	}
	fl := pl.byPort[port]
	i := sort.Search(len(fl), func(i int) bool { return fl[i].freeze >= freeze })
	if i < len(fl) && fl[i].freeze == freeze {
		return fl[i]
	}
	return nil
}

// pacer holds an open-loop feeder to its schedule: burst b is due at
// start + b*burst/rate. It sleeps to the schedule, never spins, and keeps
// how late the generator itself started each burst: the time from when the
// burst was due — or, if the program was still holding the previous burst
// (backpressure), from when it let go — to when the burst began. Time the
// program keeps the feeder blocked is the program's, and shows up as
// backpressure and as freshness, not as generator lateness.
type pacer struct {
	start   int64
	perNs   float64 // ns per packet
	burst   int
	n       int64 // packets scheduled so far
	lateNs  []float64
	sleepFn func(time.Duration) // time.Sleep; a fake in tests
	nowFn   func() int64
}

func newPacer(rate float64, burst int) *pacer {
	return &pacer{perNs: 1e9 / rate, burst: burst, sleepFn: time.Sleep, nowFn: nowNs}
}

// wait is called when the previous burst has been handed over; it blocks
// until the next burst is due and records the generator's lateness.
func (pc *pacer) wait() {
	free := pc.nowFn() // the program has just returned control
	if pc.n == 0 {
		pc.start = free
	}
	due := pc.start + int64(float64(pc.n)*pc.perNs)
	now := free
	if now < due {
		pc.sleepFn(time.Duration(due - now))
		now = pc.nowFn()
	}
	from := due
	if free > from {
		from = free
	}
	pc.lateNs = append(pc.lateNs, float64(now-from))
	pc.n += int64(pc.burst)
}

// feed replays the plan into sink, one call per packet, stamping each
// flip's feed time just before its trigger packet goes in. pace, when set,
// is asked at the start of every round for the pacer to hold the round to
// (nil: feed as fast as sink accepts). It returns the packets fed.
func (pl *feedPlan) feed(sink func(*pktrec.Packet), pace func(round int) *pacer, ln *lane) int64 {
	stream := pl.sw.stream
	n := int64(len(stream))
	next := 0
	untilPace := int64(0)
	// One packet value for the whole feed: sink is opaque to escape
	// analysis, so a per-iteration copy would be a heap allocation per
	// packet. The program copies or consumes *p before sink returns.
	var p pktrec.Packet
	pl.roundWall, pl.roundCPU = pl.roundWall[:0], pl.roundCPU[:0]
	var pc *pacer
	for r := 0; r < pl.rounds; r++ {
		pl.roundWall, pl.roundCPU = append(pl.roundWall, nowNs()), append(pl.roundCPU, cpuNow())
		if pace != nil {
			if next := pace(r); next != pc {
				pc, untilPace = next, 0
			}
		}
		tok := ln.begin("feed.round", uint64(r))
		shift := uint64(r) * pl.span
		base := int64(r) * n
		for i := int64(0); i < n; {
			// Feed up to the next trigger packet (or the round's end), in
			// bursts when paced.
			stop := n
			if next < len(pl.flips) && pl.flips[next].at < base+n {
				stop = pl.flips[next].at - base
			}
			for i < stop {
				chunk := stop
				if pc != nil {
					if untilPace == 0 {
						pc.wait()
						untilPace = int64(pc.burst)
					}
					if i+untilPace < chunk {
						chunk = i + untilPace
					}
					untilPace -= chunk - i
				}
				for ; i < chunk; i++ {
					p = stream[i]
					p.Meta.EnqTimestamp += shift
					sink(&p)
				}
			}
			if stop < n {
				// stream[stop] triggers this flip; one packet flips one
				// port, so the next flip lies further on and the next pass
				// feeds the trigger.
				pl.flips[next].fedAt.Store(nowNs())
				next++
			}
		}
		ln.end(tok)
	}
	// The final freezes are fed, in the plan's sense, when the last packet
	// is: FinalizePort follows at once.
	end := nowNs()
	pl.roundWall, pl.roundCPU = append(pl.roundWall, end), append(pl.roundCPU, cpuNow())
	for ; next < len(pl.flips); next++ {
		pl.flips[next].fedAt.Store(end)
	}
	return pl.total
}
