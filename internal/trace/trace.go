// Package trace synthesizes the workloads of the paper's evaluation. The
// original testbed replays the University of Wisconsin data-center trace and
// two synthetic traces modeled after well-known flow-size distributions
// (web search / DCTCP and data mining / VL2), with flows and packets
// arriving as Poisson processes. The UW pcap itself is not redistributable,
// so this package generates a synthetic equivalent from its published
// characteristics: ~100-byte packets and an extremely long-tailed flow-size
// distribution (the 100th-largest flow carries <1% of the largest flow's
// packets). WS and DM use near-MTU packets, as in the paper.
//
// All randomness is drawn from seeded PCG generators, so every trace is
// reproducible from its configuration.
package trace

import (
	"fmt"
	"math"
	"math/rand/v2"

	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

// Workload selects one of the paper's three traffic mixes.
type Workload int

const (
	// UW models the University of Wisconsin data-center trace: small
	// packets (~100 B), extreme long-tailed flow sizes, ~9.1 Mpps at
	// 10 Gbps.
	UW Workload = iota
	// WS models the web-search (DCTCP) flow-size distribution with
	// near-MTU packets (~0.84 Mpps at 10 Gbps).
	WS
	// DM models the data-mining (VL2) flow-size distribution with near-MTU
	// packets.
	DM
)

func (w Workload) String() string {
	switch w {
	case UW:
		return "UW"
	case WS:
		return "WS"
	case DM:
		return "DM"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// ParseWorkload parses "UW", "WS" or "DM" (case-sensitive).
func ParseWorkload(s string) (Workload, error) {
	switch s {
	case "UW":
		return UW, nil
	case "WS":
		return WS, nil
	case "DM":
		return DM, nil
	}
	return 0, fmt.Errorf("trace: unknown workload %q", s)
}

// sizeDist is a piecewise-linear CDF over flow sizes in bytes.
type sizeDist struct {
	bytes []float64 // x: flow size
	cdf   []float64 // y: P(size <= x), ending at 1
}

// sample inverts the CDF at a uniform variate.
func (d sizeDist) sample(u float64) float64 {
	// Find the first cdf point >= u and interpolate linearly from the
	// previous point.
	lo, loCDF := 0.0, 0.0
	for i, c := range d.cdf {
		if u <= c {
			hi, hiCDF := d.bytes[i], c
			if hiCDF == loCDF {
				return hi
			}
			return lo + (hi-lo)*(u-loCDF)/(hiCDF-loCDF)
		}
		lo, loCDF = d.bytes[i], c
	}
	return d.bytes[len(d.bytes)-1]
}

// webSearchDist is modeled after the DCTCP web-search workload: a mix of
// short queries and large responses up to tens of MB.
var webSearchDist = sizeDist{
	bytes: []float64{6e3, 13e3, 19e3, 33e3, 53e3, 133e3, 667e3, 1.467e6, 3.333e6, 6.667e6, 20e6},
	cdf:   []float64{0.15, 0.20, 0.30, 0.40, 0.53, 0.60, 0.70, 0.80, 0.90, 0.97, 1.0},
}

// dataMiningDist is modeled after the VL2 data-mining workload: ~80% of
// flows under 10 KB but most bytes in very large flows.
var dataMiningDist = sizeDist{
	bytes: []float64{100, 1e3, 2e3, 10e3, 100e3, 1e6, 10e6, 100e6},
	cdf:   []float64{0.10, 0.50, 0.60, 0.80, 0.90, 0.95, 0.98, 1.0},
}

// Config describes one synthetic trace destined for a single egress port.
type Config struct {
	Workload Workload
	Seed     uint64
	// Port and Queue stamp the generated packets.
	Port  int
	Queue int
	// LinkBps is the egress line rate the load levels are relative to.
	LinkBps uint64
	// Packets bounds the trace length (stop after this many packets).
	// Zero means DurationNs governs.
	Packets int
	// DurationNs bounds the trace length in time. Zero means Packets
	// governs. At least one bound must be set.
	DurationNs uint64
	// CalmLoad is the offered load, relative to LinkBps, outside bursts
	// (e.g. 0.7). BurstLoad is the offered load during bursts (e.g. 2.5);
	// values above 1 grow the queue. Congestion in the paper's networks
	// arrives in waves (microbursts), which the two-state modulation
	// reproduces; the resulting victims span all of the paper's
	// queue-depth buckets.
	CalmLoad, BurstLoad float64
	// MeanCalmNs and MeanBurstNs are the mean sojourn times of the
	// two-state (calm/burst) modulation, exponentially distributed.
	MeanCalmNs, MeanBurstNs float64
	// Episodic switches the modulation to targeted congestion episodes:
	// the generator tracks the backlog the egress queue must be holding
	// (offered bytes minus line-rate drain) and bursts until it reaches a
	// per-episode target depth drawn log-uniformly from
	// [MinEpisodeCells, MaxEpisodeCells], then drains and idles. This
	// guarantees victims in every queue-depth bucket of the paper's
	// figures, which a memoryless modulation cannot.
	Episodic bool
	// MinEpisodeCells and MaxEpisodeCells bound the per-episode target
	// depth in 80-byte cells (defaults 600 and 28000).
	MinEpisodeCells, MaxEpisodeCells int
	// FlowArrivalRate is the Poisson flow arrival rate in flows/sec.
	// Zero picks a workload-appropriate default.
	FlowArrivalRate float64
	// MaxActiveFlows caps concurrency (arrivals beyond it are deferred).
	MaxActiveFlows int
}

func (c *Config) normalize() error {
	if c.LinkBps == 0 {
		return fmt.Errorf("trace: LinkBps must be set")
	}
	if c.Packets == 0 && c.DurationNs == 0 {
		return fmt.Errorf("trace: either Packets or DurationNs must bound the trace")
	}
	if c.CalmLoad <= 0 {
		c.CalmLoad = 0.7
	}
	if c.BurstLoad <= 0 {
		c.BurstLoad = 2.5
	}
	if c.MeanCalmNs <= 0 {
		c.MeanCalmNs = 200e3 // 200 us
	}
	if c.MeanBurstNs <= 0 {
		c.MeanBurstNs = 100e3 // 100 us
	}
	if c.FlowArrivalRate <= 0 {
		switch c.Workload {
		case UW:
			c.FlowArrivalRate = 20000
		default:
			c.FlowArrivalRate = 5000
		}
	}
	if c.MaxActiveFlows <= 0 {
		c.MaxActiveFlows = 512
	}
	if c.MinEpisodeCells <= 0 {
		c.MinEpisodeCells = 600
	}
	if c.MaxEpisodeCells <= c.MinEpisodeCells {
		c.MaxEpisodeCells = 28000
	}
	return nil
}

// meanPacketBytes returns the workload's average packet size, which sets
// the packet rate at a given offered load.
func (c *Config) meanPacketBytes() float64 {
	if c.Workload == UW {
		return 100
	}
	return pktrec.MTUBytes
}

// activeFlow is a flow currently emitting packets.
type activeFlow struct {
	key       flow.Key
	remaining int // packets left to send
}

// Generator streams one synthetic trace. Packets come out in non-decreasing
// arrival order, ready for switchsim injection.
type Generator struct {
	cfg Config
	rng *rand.Rand

	now        uint64
	burst      bool
	burstLoad  float64 // this episode's offered load
	stateUntil uint64
	flows      []activeFlow
	deferred   int // flows that arrived past the concurrency cap
	nextFlowAt uint64
	emitted    int
	flowSeq    uint32

	// Episodic-mode state: the generator's running estimate of the egress
	// backlog in bytes, and the current episode's target.
	backlogBytes float64
	lastEmit     uint64
	targetCells  int
	draining     bool
	idleUntil    uint64
}

// NewGenerator validates the config and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
	}
	g.nextFlowAt = g.expDelay(1e9 / cfg.FlowArrivalRate)
	g.stateUntil = g.expDelay(cfg.MeanCalmNs)
	g.burstLoad = cfg.BurstLoad
	if cfg.Episodic {
		g.newEpisode()
	}
	return g, nil
}

// expDelay draws an exponential delay with the given mean in ns, >= 1.
func (g *Generator) expDelay(meanNs float64) uint64 {
	d := g.rng.ExpFloat64() * meanNs
	if d < 1 {
		d = 1
	}
	if d > 1e15 {
		d = 1e15
	}
	return uint64(d)
}

// newFlowKey mints a unique 5-tuple.
func (g *Generator) newFlowKey(proto flow.Proto) flow.Key {
	g.flowSeq++
	id := g.flowSeq
	var k flow.Key
	k.SrcIP = [4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)}
	k.DstIP = [4]byte{10, 128, byte(g.cfg.Port), 1}
	k.SrcPort = uint16(33000 + id%16384)
	k.DstPort = uint16(80 + id%4)
	k.Proto = proto
	return k
}

// flowPackets draws a flow size and converts it to a packet count.
func (g *Generator) flowPackets() int {
	u := g.rng.Float64()
	var bytes float64
	switch g.cfg.Workload {
	case WS:
		bytes = webSearchDist.sample(u)
	case DM:
		bytes = dataMiningDist.sample(u)
	default:
		// UW: Pareto-like with a heavy tail. Shape chosen so the
		// 100th-largest of ~10k flows is <1% of the largest.
		const shape = 0.65
		bytes = 2e3 * math.Pow(1-u, -1/shape)
		if bytes > 4e8 {
			bytes = 4e8
		}
	}
	n := int(math.Ceil(bytes / g.cfg.meanPacketBytes()))
	if n < 1 {
		n = 1
	}
	return n
}

// packetBytes draws one packet's wire size.
func (g *Generator) packetBytes(last bool) int {
	if g.cfg.Workload == UW {
		// Mean ~100 B (64..136), matching the paper's UW description and
		// the 80 ns min-packet transmission delay the coefficient model
		// assumes at 10 Gbps.
		return 64 + g.rng.IntN(73)
	}
	if last {
		return 64 + g.rng.IntN(pktrec.MTUBytes-64)
	}
	return pktrec.MTUBytes
}

// offeredLoad returns the current offered load relative to line rate.
func (g *Generator) offeredLoad() float64 {
	if g.cfg.Episodic {
		if g.draining {
			return g.cfg.CalmLoad
		}
		return g.burstLoad
	}
	if g.burst {
		return g.burstLoad
	}
	return g.cfg.CalmLoad
}

// lineBytesPerNs is the egress drain rate in bytes/ns.
func (g *Generator) lineBytesPerNs() float64 {
	return float64(g.cfg.LinkBps) / 8e9
}

// episodicStep maintains the backlog estimate and the episode state
// machine: burst to the target depth, drain to empty, idle, repeat.
func (g *Generator) episodicStep(emittedBytes int) {
	if g.now > g.lastEmit {
		g.backlogBytes -= float64(g.now-g.lastEmit) * g.lineBytesPerNs()
		if g.backlogBytes < 0 {
			g.backlogBytes = 0
		}
	}
	g.lastEmit = g.now
	if g.draining && g.backlogBytes <= 0 {
		// The queue drained before this packet: the episode is over. Idle
		// to separate congestion regimes, then start the next one.
		g.idleUntil = g.now + g.expDelay(g.cfg.MeanCalmNs)
		g.newEpisode()
	}
	g.backlogBytes += float64(emittedBytes)
	if !g.draining && g.backlogBytes >= float64(g.targetCells*pktrec.CellBytes) {
		g.draining = true
	}
}

// newEpisode draws the next target depth (log-uniform over the configured
// range) and burst intensity.
func (g *Generator) newEpisode() {
	lo := math.Log(float64(g.cfg.MinEpisodeCells))
	hi := math.Log(float64(g.cfg.MaxEpisodeCells))
	g.targetCells = int(math.Exp(lo + (hi-lo)*g.rng.Float64()))
	g.burstLoad = 1.5 + (g.cfg.BurstLoad-1.5)*g.rng.Float64()
	if g.burstLoad < 1.2 {
		g.burstLoad = 1.2
	}
	g.draining = false
}

// step advances the modulation and flow-arrival processes to time t.
func (g *Generator) step(t uint64) {
	for t >= g.stateUntil {
		g.burst = !g.burst
		mean := g.cfg.MeanCalmNs
		if g.burst {
			mean = g.cfg.MeanBurstNs
			// Vary burst intensity per episode so congestion peaks spread
			// over the whole range of queue depths, like the replayed
			// trace's natural burst structure.
			g.burstLoad = 1.2 + (g.cfg.BurstLoad-1.2)*g.rng.Float64()
		}
		g.stateUntil += g.expDelay(mean)
	}
	for t >= g.nextFlowAt {
		if len(g.flows) < g.cfg.MaxActiveFlows {
			g.flows = append(g.flows, activeFlow{key: g.newFlowKey(flow.ProtoTCP), remaining: g.flowPackets()})
		} else {
			g.deferred++
		}
		g.nextFlowAt += g.expDelay(1e9 / g.cfg.FlowArrivalRate)
	}
	if len(g.flows) < g.cfg.MaxActiveFlows && g.deferred > 0 {
		g.deferred--
		g.flows = append(g.flows, activeFlow{key: g.newFlowKey(flow.ProtoTCP), remaining: g.flowPackets()})
	}
}

// Next returns the next packet, or nil when the trace is exhausted.
func (g *Generator) Next() *pktrec.Packet {
	if g.cfg.Packets > 0 && g.emitted >= g.cfg.Packets {
		return nil
	}
	for {
		// Mean inter-packet gap at the current offered load.
		gap := g.meanGapNs()
		g.now += g.expDelay(gap)
		if g.cfg.Episodic && g.now < g.idleUntil {
			g.now = g.idleUntil
		}
		if g.cfg.DurationNs > 0 && g.now > g.cfg.DurationNs {
			return nil
		}
		g.step(g.now)
		if len(g.flows) == 0 {
			// The pool ran dry before the next Poisson arrival: mint a
			// flow on demand so the offered load is actually delivered
			// (senders in the paper's testbed replay back-to-back; the
			// trace is never supply-limited).
			g.flows = append(g.flows, activeFlow{key: g.newFlowKey(flow.ProtoTCP), remaining: g.flowPackets()})
		}
		i := g.rng.IntN(len(g.flows))
		f := &g.flows[i]
		f.remaining--
		last := f.remaining == 0
		pkt := &pktrec.Packet{
			Flow:    f.key,
			Bytes:   g.packetBytes(last),
			Arrival: g.now,
			Port:    g.cfg.Port,
			Queue:   g.cfg.Queue,
		}
		if last {
			g.flows[i] = g.flows[len(g.flows)-1]
			g.flows = g.flows[:len(g.flows)-1]
		}
		if g.cfg.Episodic {
			g.episodicStep(pkt.Bytes)
		}
		g.emitted++
		return pkt
	}
}

// meanGapNs is the mean inter-packet arrival gap for the current load.
func (g *Generator) meanGapNs() float64 {
	pps := g.offeredLoad() * float64(g.cfg.LinkBps) / (8 * g.cfg.meanPacketBytes())
	return 1e9 / pps
}

// Generate materializes the whole trace into a slice.
func Generate(cfg Config) ([]*pktrec.Packet, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var out []*pktrec.Packet
	for p := g.Next(); p != nil; p = g.Next() {
		out = append(out, p)
	}
	return out, nil
}
