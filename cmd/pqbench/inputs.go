package main

import (
	"fmt"
	"sort"
	"time"

	"printqueue/internal/experiments"
	"printqueue/internal/groundtruth"
	"printqueue/internal/pktrec"
	"printqueue/internal/switchsim"
	"printqueue/internal/trace"
)

// Inputs are made once per set-up, from trafficSeed alone: per-port synthetic
// traces are replayed through the simulated switch and the dequeue-ordered
// packets (metadata filled) recorded. The timed regions replay that
// recording, so trace synthesis and the switch simulation cost set-up time,
// never ingest time, and the program under test receives only packets.

const bufferCells = 40000 // the experiments package's deep buffer

// portInput is what the harness knows about one egress port of one switch.
type portInput struct {
	port int
	gt   *groundtruth.Collector
	// deq[i] is the dequeue time of the port's i-th packet and pos[i] its
	// index in the switch's recorded stream.
	deq []uint64
	pos []int32
	// regime[i] is the enqueue time of the first packet of the congestion
	// regime record i belongs to (the queue was empty just before it).
	regime []uint64
	// victims are the ground-truth record indices that saw a deep queue,
	// ascending (so ascending in dequeue time too).
	victims []int32
	// buckets splits the victims by the paper's queue-depth groups
	// (experiments.DepthBuckets), empty groups left out. Narrow diagnoses
	// draw from the groups in turn, as the paper samples victims per group:
	// how deep a seed's trace happens to queue then shifts no workload mean.
	buckets [][]int32
	// byDelay is the victims ordered by queueing delay; the dashboard's
	// fixed intervals sit at evenly spaced ranks of it.
	byDelay []int32
}

// switchInput is one switch's recorded dequeue stream.
type switchInput struct {
	stream []pktrec.Packet
	ports  []*portInput // indexed by port id
}

type inputs struct {
	w      workload
	preset experiments.WorkloadPreset
	sw     []*switchInput // one per hop
	// span is the timestamp shift between replay rounds: larger than any
	// recorded dequeue time, so per-port timestamps stay monotone.
	span uint64

	genNs, injectNs, chainNs       int64
	genPkts, injectPkts, chainPkts int
}

// makeInputs builds the workload's inputs.
func makeInputs(w workload) (*inputs, error) {
	in := &inputs{w: w, preset: experiments.Preset(w.Preset, w.PktsPerPort, trafficSeed)}
	var err error
	if w.Hops > 1 {
		err = in.recordChain()
	} else {
		err = in.recordSwitch()
	}
	if err != nil {
		return nil, err
	}
	var last uint64
	for _, sw := range in.sw {
		for _, p := range sw.ports {
			if len(p.deq) == 0 {
				return nil, fmt.Errorf("port %d dequeued no packets", p.port)
			}
			if d := p.deq[len(p.deq)-1]; d > last {
				last = d
			}
			p.finish()
		}
	}
	// Victims are drawn on the first switch (a chain's later hops see
	// traffic the first has already shaped, and may never queue).
	for _, p := range in.sw[0].ports {
		if len(p.victims) == 0 {
			return nil, fmt.Errorf("port %d: no packet of the trace waited in a queue, so there is no victim to diagnose", p.port)
		}
	}
	in.span = last + 1_000_000
	return in, nil
}

// generate synthesises one port's trace with the preset's shaping.
func (in *inputs) generate(port int, seed uint64, tune func(*trace.Config)) ([]*pktrec.Packet, error) {
	cfg := in.preset.Gen
	cfg.Seed = seed
	cfg.Port = port
	if tune != nil {
		tune(&cfg)
	}
	t0 := time.Now()
	pkts, err := trace.Generate(cfg)
	in.genNs += time.Since(t0).Nanoseconds()
	in.genPkts += len(pkts)
	return pkts, err
}

func newSwitchInput(ports int) *switchInput {
	sw := &switchInput{ports: make([]*portInput, ports)}
	for p := range sw.ports {
		sw.ports[p] = &portInput{port: p, gt: groundtruth.NewCollector()}
	}
	return sw
}

// attach hooks the recorder and the ground truth to one simulated port.
func (sw *switchInput) attach(p *switchsim.Port) {
	pi := sw.ports[p.ID()]
	p.AddEgressHook(pi.gt)
	p.AddEgressHook(switchsim.EgressFunc(func(pk *pktrec.Packet) {
		pi.deq = append(pi.deq, pk.Meta.DeqTimestamp())
		pi.pos = append(pi.pos, int32(len(sw.stream)))
		sw.stream = append(sw.stream, *pk) // hooks must not retain pk
	}))
}

// recordSwitch replays per-port traces (Seed = trafficSeed+port), merged by
// arrival so the recorded stream interleaves the ports as a traffic manager
// would emit them, through one switch.
func (in *inputs) recordSwitch() error {
	w := in.w
	traces := make([][]*pktrec.Packet, w.Ports)
	for p := range traces {
		var err error
		if traces[p], err = in.generate(p, trafficSeed+uint64(p), nil); err != nil {
			return err
		}
	}
	sim, err := switchsim.NewSwitch(w.Ports, switchsim.PortConfig{LinkBps: in.preset.LinkBps, BufferCells: bufferCells})
	if err != nil {
		return err
	}
	sw := newSwitchInput(w.Ports)
	sw.stream = make([]pktrec.Packet, 0, w.Ports*w.PktsPerPort)
	for p := 0; p < w.Ports; p++ {
		sw.attach(sim.Port(p))
	}
	t0 := time.Now()
	head := make([]int, w.Ports)
	for {
		best := -1
		for p, h := range head {
			if h < len(traces[p]) && (best < 0 || traces[p][h].Arrival < traces[best][head[best]].Arrival) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		sim.Inject(traces[best][head[best]])
		head[best]++
		in.injectPkts++
	}
	sim.Flush()
	in.injectNs += time.Since(t0).Nanoseconds()
	in.sw = []*switchInput{sw}
	return nil
}

// recordChain replays one trace down a chain of w.Hops one-port switches,
// with lighter hop-local cross-traffic (Seed = trafficSeed+1) merging in at hop 1,
// as the experiments package's chain tests stage cross-switch congestion.
func (in *inputs) recordChain() error {
	w := in.w
	main, err := in.generate(0, trafficSeed, nil)
	if err != nil {
		return err
	}
	cross, err := in.generate(0, trafficSeed+1, func(c *trace.Config) {
		c.Packets = w.PktsPerPort / 2
		c.CalmLoad, c.BurstLoad = 0.2, 1.2
	})
	if err != nil {
		return err
	}
	return in.runChain(w.Hops, values(main), [][]pktrec.Packet{nil, values(cross)})
}

func values(pkts []*pktrec.Packet) []pktrec.Packet {
	out := make([]pktrec.Packet, len(pkts))
	for i, p := range pkts {
		out[i] = *p
	}
	return out
}

func (in *inputs) runChain(hops int, pkts []pktrec.Packet, inject [][]pktrec.Packet) error {
	chain, err := switchsim.NewChain(switchsim.ChainConfig{
		Hops:        hops,
		Ports:       1,
		Port:        switchsim.PortConfig{LinkBps: in.preset.LinkBps, BufferCells: bufferCells},
		LinkDelayNs: 1000,
	})
	if err != nil {
		return err
	}
	sws := make([]*switchInput, hops)
	for k := range sws {
		sws[k] = newSwitchInput(1)
		sws[k].attach(chain.Switch(k).Port(0))
	}
	t0 := time.Now()
	chain.Run(pkts, inject)
	in.chainNs += time.Since(t0).Nanoseconds()
	for _, sw := range sws {
		in.chainPkts += len(sw.stream)
	}
	in.sw = sws
	return nil
}

// finish derives the per-record regime starts and the victim list, which is
// empty when no packet of the trace waited in a queue.
func (p *portInput) finish() {
	recs := p.gt.Records()
	p.regime = make([]uint64, len(recs))
	for i, r := range recs {
		// Under FIFO dequeue order is enqueue order, so one forward pass
		// finds what groundtruth.RegimeStart finds walking back.
		if i == 0 || int(r.EnqQdepth) <= pktrec.Cells(int(r.Bytes)) {
			p.regime[i] = r.EnqTimestamp
		} else {
			p.regime[i] = p.regime[i-1]
		}
	}
	min := victimMinCells
	for {
		p.victims = p.victims[:0]
		for i, r := range recs {
			if int(r.EnqQdepth) >= min && r.DeqTimedelta > 0 {
				p.victims = append(p.victims, int32(i))
			}
		}
		// A trace too short to queue that deep still needs victims; halve
		// the bar rather than fail the run.
		if len(p.victims) >= 64 || min <= 1 {
			break
		}
		min /= 2
	}
	for _, b := range experiments.DepthBuckets {
		var group []int32
		for _, v := range p.victims {
			if d := int(recs[v].EnqQdepth); d >= b.Lo && (b.Hi == 0 || d < b.Hi) {
				group = append(group, v)
			}
		}
		if len(group) > 0 {
			p.buckets = append(p.buckets, group)
		}
	}
	if len(p.buckets) == 0 && len(p.victims) > 0 { // the bar was halved below the first group
		p.buckets = [][]int32{p.victims}
	}
	p.byDelay = append([]int32(nil), p.victims...)
	sort.SliceStable(p.byDelay, func(i, j int) bool {
		return recs[p.byDelay[i]].DeqTimedelta < recs[p.byDelay[j]].DeqTimedelta
	})
}

// victimAtOrBefore returns the newest victim dequeued at or before off (a
// time within one round), or -1.
func (p *portInput) victimAtOrBefore(off uint64) int {
	recs := p.gt.Records()
	i := sort.Search(len(p.victims), func(i int) bool { return recs[p.victims[i]].DeqTimestamp() > off })
	return i - 1
}
