package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/fleet"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
	"printqueue/internal/tracing"
)

// The stack under test, per switch: control.New (the preset's paper TW/QM
// configuration, MaxCheckpoints 64, History in a scratch directory) →
// control.NewPipeline (default configuration) → NewQueryServer +
// ServeQueries on loopback; above them one fleet collector with a mirror of
// every switch, and the harness's own checkpoint subscriber. The ingest
// ladder builds the same stack with layers left out.

const (
	maxCheckpoints = 64
	queryWorkers   = 2 // as cmd/pqfleet starts its query servers
)

// stackOpts selects the layers of a stack. The zero value is the bare
// System; fullStack is the stack every workload runs.
type stackOpts struct {
	pollNs    uint64
	rounds    int
	tail      int // paced rounds after the closed-loop ones
	history   bool
	pipeline  bool
	serve     bool // QueryServer, loopback listener, harness MuxClient
	subscribe bool // harness's own DialCheckpoints subscriber
	collect   bool // fleet collector registered with every switch
	traced    bool // switch on the program's own tracer, sampling every op
}

func fullStack(w workload, traced bool) stackOpts {
	return stackOpts{pollNs: w.PollNs, rounds: w.Rounds, tail: w.TailRounds, history: true, pipeline: true,
		serve: true, subscribe: true, collect: true, traced: traced}
}

// swStack is one switch of the stack.
type swStack struct {
	id   string
	hop  int
	in   *switchInput
	plan *feedPlan
	cfg  control.Config

	sys *control.System
	pl  *control.Pipeline
	qs  *control.QueryServer
	ns  *control.NetServer
	mux *control.MuxClient
	sub *subscriber
}

type stack struct {
	opts stackOpts
	in   *inputs
	dir  string
	sws  []*swStack

	col    *fleet.Collector
	colReg *telemetry.Registry

	clientTracer *tracing.Tracer
	fleetTracer  *tracing.Tracer
}

// scratchRoot is where stacks keep their history and mirror directories:
// inside the checkout, because the benchmark may write nowhere else. Tests
// point it at their own temporary directory.
var scratchRoot = filepath.Join(".bench_build", "tmp")

func newStack(in *inputs, opts stackOpts) (*stack, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "pqbench-")
	if err != nil {
		return nil, err
	}
	st := &stack{opts: opts, in: in, dir: dir}
	if opts.traced {
		st.clientTracer = tracing.New(tracing.Config{SampleEvery: 1, RingSize: 4096})
		st.fleetTracer = tracing.New(tracing.Config{SampleEvery: 1, RingSize: 4096})
	}
	for k, swIn := range in.sw {
		sw := &swStack{id: fmt.Sprintf("sw%d", k), hop: k, in: swIn}
		st.sws = append(st.sws, sw)
		ports := make([]int, len(swIn.ports))
		for p := range ports {
			ports[p] = p
		}
		sw.cfg = control.Config{
			TW:             in.preset.TW,
			QM:             in.preset.QM,
			Ports:          ports,
			PollPeriodNs:   opts.pollNs,
			MaxCheckpoints: maxCheckpoints,
		}
		if opts.history {
			sw.cfg.History = &histstore.Options{Dir: filepath.Join(dir, sw.id, "hist")}
		}
		if err := sw.open(st, false); err != nil {
			st.close()
			return nil, err
		}
		sw.plan = newFeedPlan(swIn, opts.rounds, opts.tail, in.span, sw.sys.Config().PollPeriodNs)
	}
	if err := st.attach(false); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// open builds the switch's System and what serves it. reopened says the
// history directory already holds the switch's log.
func (sw *swStack) open(st *stack, reopened bool) error {
	sys, err := control.New(sw.cfg)
	if err != nil {
		return err
	}
	sw.sys = sys
	if st.opts.traced {
		sys.EnableTracing(control.TraceOptions{SampleEvery: 1, RingSize: 4096})
	}
	if st.opts.history {
		if err := sw.guard(reopened); err != nil {
			return err
		}
	}
	if st.opts.pipeline && !reopened {
		if sw.pl, err = control.NewPipeline(sys, control.PipelineConfig{}); err != nil {
			return err
		}
	}
	if st.opts.serve {
		sw.qs = control.NewQueryServer(sys)
		sw.qs.Start(queryWorkers)
		if sw.ns, err = control.ServeQueries("127.0.0.1:0", sw.qs); err != nil {
			return err
		}
		if sw.mux, err = control.DialMuxOpts(sw.addr(), control.DialOptions{Tracer: st.clientTracer}); err != nil {
			return err
		}
	}
	return nil
}

func (sw *swStack) addr() string { return sw.ns.Addr().String() }

// guard retires one checkpoint per port into the history's active segment
// before any checkpoint subscriber attaches: subscribing to a switch whose
// active segment holds no record panics the switch (bench/README.md,
// "defects found"). Each guard checkpoint chains onto the port's coverage —
// a fresh System's ends where its first packet begins; a reopened System's
// starts where the log's last freeze ended and holds one packet stamped
// past every query — so the hot/cold split and the mirrors' contiguous
// covers stay exactly as an unguarded run would have them.
func (sw *swStack) guard(reopened bool) error {
	for _, p := range sw.in.ports {
		at := p.deq[0]
		if reopened {
			last := sw.plan.finalFreeze(p.port)
			pk := sw.in.stream[p.pos[len(p.pos)-1]]
			pk.Meta.EnqTimestamp, pk.Meta.DeqTimedelta = last, 0
			sw.sys.OnDequeue(&pk)
			at = last + 1
		}
		if err := sw.sys.FinalizePort(p.port, at); err != nil {
			return err
		}
	}
	return nil
}

// guardFreeze is the FreezeTime of the port's newest guard checkpoint.
func (sw *swStack) guardFreeze(port int, reopened bool) uint64 {
	if reopened {
		return sw.plan.finalFreeze(port) + 1
	}
	return sw.in.ports[port].deq[0]
}

// attach starts the subscriber and the collector over already-open
// switches and waits until every mirror answers for every port's guard
// checkpoint, so no measured region pays for a connection being set up.
func (st *stack) attach(reopened bool) error {
	if st.opts.subscribe {
		for _, sw := range st.sws {
			sw.sub = newSubscriber(sw)
		}
	}
	if !st.opts.collect {
		return nil
	}
	st.colReg = telemetry.NewRegistry()
	st.col = fleet.New(fleet.Options{
		Mirror:    true,
		MirrorDir: filepath.Join(st.dir, "mirror"),
		// Every diagnosis the harness issues lies inside the mirrors'
		// covers, so this bound changes no measured answer. It is here for
		// the freshness probe, which asks about a checkpoint until the
		// mirror covers it: with the default strict bound each early ask
		// would fall back to a network query that makes the switch build
		// the checkpoint's index — the probe would load the layers it
		// measures. With it, an early ask is a local lookup answered Stale.
		MirrorStalenessNs: 1 << 62,
		Telemetry:         st.colReg,
		Tracer:            st.fleetTracer,
	})
	for _, sw := range st.sws {
		if err := st.col.Register(fleet.SwitchInfo{ID: sw.id, Hop: sw.hop, Addr: sw.addr()}); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, sw := range st.sws {
		for _, p := range sw.in.ports {
			if !st.awaitMirrored(sw, p.port, sw.guardFreeze(p.port, reopened), deadline) {
				return fmt.Errorf("mirror of %s port %d not warm after 30s", sw.id, p.port)
			}
		}
	}
	return nil
}

// mirrored asks the collector for the last microsecond before freeze on one
// port and reports whether its mirror gave a fresh answer.
func (st *stack) mirrored(sw *swStack, port int, freeze uint64) bool {
	start := uint64(0)
	if freeze > 1000 {
		start = freeze - 1000
	}
	res := st.col.QueryPath([]fleet.HopRef{{SwitchID: sw.id, Port: port}}, start, freeze)
	return res[0].Err == nil && res[0].Mirrored && !res[0].Stale
}

func (st *stack) awaitMirrored(sw *swStack, port int, freeze uint64, deadline time.Time) bool {
	for !st.mirrored(sw, port, freeze) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// sink is where the feeder hands the switch's packets.
func (sw *swStack) sink() func(*pktrec.Packet) {
	if sw.pl != nil {
		return sw.pl.Ingest
	}
	return sw.sys.OnDequeue
}

// finishIngest drains the pipeline and finalizes every port at its own
// last dequeue + 1, retiring the tail of the feed.
func (sw *swStack) finishIngest() error {
	if sw.pl != nil {
		sw.pl.Close()
		sw.pl = nil
	}
	for _, p := range sw.in.ports {
		if err := sw.sys.FinalizePort(p.port, sw.plan.finalFreeze(p.port)); err != nil {
			return err
		}
	}
	return nil
}

// shutServing stops everything above the Systems.
func (st *stack) shutServing() {
	for _, sw := range st.sws {
		if sw.sub != nil {
			sw.sub.stop()
			sw.sub = nil
		}
	}
	if st.col != nil {
		st.col.Close()
		st.col = nil
	}
	for _, sw := range st.sws {
		if sw.mux != nil {
			sw.mux.Close()
			sw.mux = nil
		}
		if sw.ns != nil {
			sw.ns.Close()
			sw.ns = nil
		}
		if sw.qs != nil {
			sw.qs.Stop()
			sw.qs = nil
		}
	}
}

// reopen closes every System and opens it again on its history directory:
// the hot ring comes back empty, so every answer is served from the log.
// It returns how long the Systems took to open and the mirrors to replay
// the logs, and how many records they replayed.
func (st *stack) reopen() (openNs, warmNs, replayed int64, err error) {
	st.shutServing()
	for _, sw := range st.sws {
		if sw.pl != nil {
			sw.pl.Close()
			sw.pl = nil
		}
		if err := sw.sys.Close(); err != nil {
			return 0, 0, 0, err
		}
	}
	t0 := time.Now()
	for _, sw := range st.sws {
		if err := sw.open(st, true); err != nil {
			return 0, 0, 0, err
		}
	}
	openNs = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	if err := st.attach(true); err != nil {
		return 0, 0, 0, err
	}
	warmNs = time.Since(t1).Nanoseconds()
	if st.colReg != nil {
		replayed = counterValue(st.colReg, "printqueue_fleet_stream_replayed_total")
	}
	return openNs, warmNs, replayed, nil
}

func (st *stack) close() {
	st.shutServing()
	for _, sw := range st.sws {
		if sw.pl != nil {
			sw.pl.Close()
		}
		if sw.sys != nil {
			sw.sys.Close()
		}
	}
	os.RemoveAll(st.dir)
}

// counterValue reads one unlabelled counter of a registry by its exported
// name. Registration is get-or-create, so this returns the program's own
// counter when it exists and a fresh zero otherwise.
func counterValue(reg *telemetry.Registry, name string, labels ...telemetry.Label) int64 {
	return reg.Counter(name, "", labels...).Load()
}

// seriesSum adds up every series of a counter or gauge family, whatever
// its labels (the pipeline's per-shard counters).
func seriesSum(reg *telemetry.Registry, name string) int64 {
	var sum int64
	for key, v := range reg.Snapshot() {
		if key != name && !strings.HasPrefix(key, name+"{") {
			continue
		}
		if n, ok := v.(int64); ok {
			sum += n
		}
	}
	return sum
}
