package main

import (
	"fmt"
	"os"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/experiments"
	"printqueue/internal/fleet"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
	"printqueue/internal/telemetry"
	"printqueue/internal/trace"
)

// The traced run prices each layer three ways, all from outside, through
// exported functions only:
//
//   - ladders: the workload's own recorded stream, at one tenth of its
//     rounds (three at least), through successively deeper stacks; a
//     layer's figure is its rung minus the rung before;
//   - direct timed calls on checkpoints captured from a rung;
//   - counters read back from the program's telemetry registries.

const (
	ladderShare = 10  // the ladders replay rounds/ladderShare rounds,
	ladderMin   = 3   // but at least this many: a stack's first round is not like the rest
	directReps  = 5   // timed repetitions of each direct call per checkpoint
	ladderQs    = 200 // queries per query-ladder rung
	maxCaptured = 16  // checkpoints kept for the direct calls
)

// sinkWord keeps the generator-floor rung's loop from being optimised away.
var sinkWord uint64

type ladder struct {
	r      *run
	rounds int
	layer  map[string]float64
	notes  []string
	lane   *lane

	captured []*control.Checkpoint
	tw       []*timewindow.Windows // rung r2's live structures, for the snapshot calls
	qm       []*qmonitor.Monitor
}

// runLadders fills the per-layer metrics that need a stack of their own.
func (r *run) runLadders() error {
	rounds := r.w.Rounds / ladderShare
	if rounds < ladderMin {
		rounds = ladderMin
	}
	ld := &ladder{r: r, rounds: rounds, layer: r.layer, lane: r.rec.lane("ladder")}
	if err := ld.cold(); err != nil {
		return fmt.Errorf("cold query ladder: %w", err)
	}
	// The workload's own stack goes before the rungs run: its hot rings and
	// mirrors are most of a gigabyte of live heap, under which the collector
	// runs so rarely that a rung's snapshots all land on fresh pages, and
	// first-touch page faults (bench/README.md, "Defects found" 3) then cost
	// the history rungs three times what they cost on a small heap.
	r.absorbTraces(r.st)
	r.close()
	if err := ld.ingest(); err != nil {
		return fmt.Errorf("ingest ladder: %w", err)
	}
	if err := ld.direct(); err != nil {
		return fmt.Errorf("direct calls: %w", err)
	}
	ld.setupLayers()
	r.notes = append(r.notes, ld.notes...)
	return nil
}

// rung replays the first switch's stream through sink and returns wall
// nanoseconds per packet. after, when set, is part of the rung: it waits
// for whatever the rung's deepest layer still owes.
func (ld *ladder) rung(name string, plan *feedPlan, sink func(*pktrec.Packet), after func() error) (float64, error) {
	tok := ld.lane.begin("ladder."+name, 0)
	defer ld.lane.end(tok)
	t0 := time.Now()
	n := plan.feed(sink, nil, nil)
	if after != nil {
		if err := after(); err != nil {
			return 0, err
		}
	}
	per := float64(time.Since(t0).Nanoseconds()) / float64(n)
	ld.notes = append(ld.notes, fmt.Sprintf("ladder %-4s %8.1f ns/pkt over %d packets", name, per, n))
	return per, nil
}

// stackRung builds a stack with the given layers, replays into it, and
// hands the still-open stack to use before closing it.
func (ld *ladder) stackRung(name string, opts stackOpts, use func(*stack) error) (float64, int, error) {
	opts.rounds = ld.rounds
	st, err := newStack(ld.r.in, opts)
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	sw := st.sws[0]
	per, err := ld.rung(name, sw.plan, sw.sink(), func() error {
		if err := sw.finishIngest(); err != nil {
			return err
		}
		deadline := time.Now().Add(30 * time.Second)
		for _, p := range sw.in.ports {
			final := sw.plan.finalFreeze(p.port)
			for sw.sub != nil && sw.sub.frontier[p.port].Load() < final {
				if time.Now().After(deadline) {
					return fmt.Errorf("rung %s: subscriber never saw port %d's final freeze", name, p.port)
				}
				time.Sleep(freshPoll)
			}
			if st.col != nil && !st.awaitMirrored(sw, p.port, final, deadline) {
				return fmt.Errorf("rung %s: mirror never covered port %d's final freeze", name, p.port)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if use != nil {
		if err := use(st); err != nil {
			return 0, 0, err
		}
	}
	return per, sw.sys.Stats().Checkpoints, nil
}

func (ld *ladder) ingest() error {
	r, in := ld.r, ld.r.in
	sw0 := in.sw[0]
	period := in.preset.TW.SetPeriod()
	if r.w.PollNs != 0 {
		period = r.w.PollNs
	}
	plan := newFeedPlan(sw0, ld.rounds, 0, in.span, period)

	// r0: the generator's own floor — copy, shift, call.
	r0, _ := ld.rung("r0", plan, func(p *pktrec.Packet) { sinkWord += p.Meta.EnqTimestamp }, nil)

	// r1, r2: the two per-packet data structures, one private set per port.
	for range sw0.ports {
		tw, err := timewindow.New(in.preset.TW, nil)
		if err != nil {
			return err
		}
		qm, err := qmonitor.New(in.preset.QM, nil)
		if err != nil {
			return err
		}
		ld.tw, ld.qm = append(ld.tw, tw), append(ld.qm, qm)
	}
	r1, _ := ld.rung("r1", plan, func(p *pktrec.Packet) {
		ld.tw[p.Port].Insert(p.Flow, p.Meta.DeqTimestamp())
	}, nil)
	r2, _ := ld.rung("r2", plan, func(p *pktrec.Packet) {
		ld.tw[p.Port].Insert(p.Flow, p.Meta.DeqTimestamp())
		ld.qm[p.Port].Observe(p.Flow, p.Meta.EnqQdepth)
	}, nil)

	// r3: the serial System, no history — at the sparse (set-period) poll
	// and at a dense 1 ms one, so the difference prices a flip. Whichever
	// of the two is the workload's own poll also yields the checkpoints
	// for the direct calls and the Stats the pipeline rung must reproduce.
	sparse, dense := stackOpts{}, stackOpts{pollNs: 1_000_000}
	ownDense := r.w.PollNs != 0
	var serial control.Stats
	capture := func(st *stack) error {
		serial = st.sws[0].sys.Stats()
		for _, p := range st.sws[0].in.ports {
			for _, cp := range st.sws[0].sys.Checkpoints(p.port) {
				if len(ld.captured) < maxCaptured && !cp.Filtered().Empty() {
					ld.captured = append(ld.captured, cp)
				}
			}
		}
		return nil
	}
	pick := func(own bool, use func(*stack) error) func(*stack) error {
		if own {
			return use
		}
		return nil
	}
	r3s, cpSparse, err := ld.stackRung("r3s", sparse, pick(!ownDense, capture))
	if err != nil {
		return err
	}
	r3d, cpDense, err := ld.stackRung("r3d", dense, pick(ownDense, capture))
	if err != nil {
		return err
	}

	// r4: the sharded pipeline, no history, at the sparse poll (the
	// per-packet stack with the checkpoint path all but idle) and at the
	// workload's own. Its deterministic Stats must equal the serial rung's.
	sameStats := func(st *stack) error {
		piped := st.sws[0].sys.Stats()
		r.attempted++
		if piped.Checkpoints != serial.Checkpoints || piped.EntriesRead != serial.EntriesRead || piped.PacketsObserved != serial.PacketsObserved {
			r.fail(1, "pipeline Stats %+v differ from serial Stats %+v on the ladder", piped, serial)
		}
		return nil
	}
	sparse.pipeline, dense.pipeline = true, true
	r4s, _, err := ld.stackRung("r4s", sparse, pick(!ownDense, sameStats))
	if err != nil {
		return err
	}
	r4, own := r4s, sparse
	if ownDense {
		own = dense
		if r4, _, err = ld.stackRung("r4d", dense, sameStats); err != nil {
			return err
		}
	}

	// r5..r7, at the workload's own poll: + History, + server and the
	// harness's subscriber, + the collector's mirror.
	own.history = true
	r5, _, err := ld.stackRung("r5", own, nil)
	if err != nil {
		return err
	}
	own.serve, own.subscribe = true, true
	r6, _, err := ld.stackRung("r6", own, nil)
	if err != nil {
		return err
	}
	own.collect, own.traced = true, r.traced
	r7, cpFull, err := ld.stackRung("r7", own, ld.hot)
	if err != nil {
		return err
	}

	l := ld.layer
	l["gen.feed_ns_per_pkt"] = r0
	l["timewindow.insert_ns_per_pkt"] = r1 - r0
	l["qmonitor.observe_ns_per_pkt"] = r2 - r1
	l["control.ingest.ondequeue_ns_per_pkt"] = r3s - r2
	l["control.ingest.pipeline_ns_per_pkt"] = r4
	pkts := float64(plan.total)
	if d := cpDense - cpSparse; d > 0 {
		l["control.checkpoint.flip_us"] = (r3d - r3s) * pkts / 1e3 / float64(d)
	}
	if cpFull > 0 {
		l["control.stream.publish_us"] = (r6 - r5) * pkts / 1e3 / float64(cpFull)
		l["fleet.mirror_ingest_us"] = (r7 - r6) * pkts / 1e3 / float64(cpFull)
	}
	if r7 > 0 {
		share := r4s / r7
		if share > 1 {
			share = 1
		}
		l["ladder.per_packet_share"] = share
		l["ladder.per_checkpoint_share"] = 1 - share
	}
	return nil
}

// hot is the query ladder on a live stack (rung r7's): the same intervals
// asked one layer further out each time.
func (ld *ladder) hot(st *stack) error {
	sw := st.sws[0]
	// Victims of the last round whose interval the hot ring still covers.
	var ops []diagOp
	for _, op := range newOpGen(st, ld.r.seed, 5).narrow(20 * ladderQs) {
		cps := sw.sys.Checkpoints(op.port)
		if len(cps) > 0 && op.start >= cps[0].PrevFreeze && op.shift == uint64(sw.plan.rounds-1)*sw.plan.span {
			if ops = append(ops, op); len(ops) == ladderQs {
				break
			}
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("no victim inside the hot ring")
	}
	med := func(name string, ask func(op diagOp) error) (float64, error) {
		lat := make([]float64, 0, len(ops))
		for i, op := range ops {
			tok := ld.lane.begin(name, uint64(i))
			t0 := time.Now()
			err := ask(op)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			ld.lane.end(tok)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return newDist(lat).P(50), nil
	}
	// One untimed pass first: the first touch of a checkpoint builds its
	// filtered index, which timewindow.filter_build_us prices on its own.
	// The pass also counts the cells and checkpoints the queries touch.
	reg := sw.sys.Telemetry()
	cells := -counterValue(reg, "printqueue_query_cells_visited_total")
	scanned := -counterValue(reg, "printqueue_query_checkpoints_scanned_total")
	for _, op := range ops {
		if _, err := sw.sys.QueryInterval(op.port, op.start, op.end); err != nil {
			return err
		}
	}
	cells += counterValue(reg, "printqueue_query_cells_visited_total")
	scanned += counterValue(reg, "printqueue_query_checkpoints_scanned_total")
	q1, err := med("control.query.interval", func(op diagOp) error {
		_, err := sw.sys.QueryInterval(op.port, op.start, op.end)
		return err
	})
	if err != nil {
		return err
	}
	orig, err := med("control.query.original", func(op diagOp) error {
		_, err := sw.sys.QueryOriginal(op.port, 0, op.end)
		return err
	})
	if err != nil {
		return err
	}
	q2, err := med("control.query.server", func(op diagOp) error { return sw.qs.Interval(op.port, op.start, op.end).Err })
	if err != nil {
		return err
	}
	q3, err := med("control.wire.mux_interval", func(op diagOp) error {
		_, err := sw.mux.Interval(op.port, op.start, op.end)
		return err
	})
	if err != nil {
		return err
	}
	b3, err := med("control.wire.mux_batch3", func(op diagOp) error {
		_, err := sw.mux.Batch([]control.BatchQuery{
			{Kind: control.IntervalQuery, Port: op.port, Start: op.start, End: op.end},
			{Kind: control.IntervalQuery, Port: op.port, Start: op.start, End: op.end},
			{Kind: control.OriginalQuery, Port: op.port, Start: op.end},
		})
		return err
	})
	if err != nil {
		return err
	}
	batch := make([]control.BatchQuery, 16)
	b16, err := med("control.wire.mux_batch16", func(op diagOp) error {
		for i := range batch {
			o := ops[i%len(ops)]
			batch[i] = control.BatchQuery{Kind: control.IntervalQuery, Port: o.port, Start: o.start, End: o.end}
		}
		_, err := sw.mux.Batch(batch)
		return err
	})
	if err != nil {
		return err
	}

	// The collector, three ways: network fan-out only, the mirror computing,
	// the mirror's memo. The fan-out collector is a second one with no
	// mirror, so the first one's mirror cannot answer for it.
	fan := fleet.New(fleet.Options{})
	defer fan.Close()
	for _, s := range st.sws {
		if err := fan.Register(fleet.SwitchInfo{ID: s.id, Hop: s.hop, Addr: s.addr()}); err != nil {
			return err
		}
	}
	hopErr := func(res []fleet.HopResult) error {
		for _, h := range res {
			if h.Err != nil {
				return h.Err
			}
		}
		return nil
	}
	q5, err := med("fleet.query_path.fanout", func(op diagOp) error { return hopErr(fan.QueryPath(op.hops, op.start, op.end)) })
	if err != nil {
		return err
	}
	q6, err := med("fleet.query_path.mirror", func(op diagOp) error { return hopErr(st.col.QueryPath(op.hops, op.start, op.end)) })
	if err != nil {
		return err
	}
	q7, err := med("fleet.query_path.memo", func(op diagOp) error { return hopErr(st.col.QueryPath(op.hops, op.start, op.end)) })
	if err != nil {
		return err
	}
	dg, err := med("fleet.diagnose.memo", func(op diagOp) error {
		_, err := st.col.Diagnose("victim", op.hops, op.start, op.end, topK)
		return err
	})
	if err != nil {
		return err
	}

	l := ld.layer
	l["control.query.interval_hot_us"] = q1
	l["control.query.original_us"] = orig
	l["control.query.cells_per_query"] = float64(cells) / float64(len(ops))
	l["control.query.checkpoints_scanned_per_query"] = float64(scanned) / float64(len(ops))
	l["control.query.server_us"] = q2 - q1
	l["control.wire.mux_interval_us"] = q3 - q2
	l["control.wire.mux_batch3_us"] = b3
	l["control.wire.mux_batch16_us_per_query"] = b16 / 16
	l["fleet.query_path_fanout_us"] = q5
	l["fleet.query_path_mirror_us"] = q6
	l["fleet.query_path_memo_us"] = q7
	l["fleet.diagnose_overhead_us"] = dg - q7
	ld.r.absorbTraces(st)
	return nil
}

// cold asks unique victims of the main stack's first switch once it has
// been reopened on its log, where every checkpoint must come off disk
// through the decode cache: the switch-side twin of what the mirrors do
// for history_fleet's narrow phase (the mirrors' own stores are private).
func (ld *ladder) cold() error {
	r, st := ld.r, ld.r.st
	if !r.w.Reopen {
		var err error
		if r.reopenNs, r.warmNs, r.replayed, err = st.reopen(); err != nil {
			return err
		}
		r.recoveryMetrics()
	}
	sw := st.sws[0]
	n := r.w.Narrow
	if n == 0 {
		n = ladderQs
	}
	ops := newOpGen(st, r.seed, 1).narrow(n)
	before, _ := sw.sys.HistoryStats()
	lat := make([]float64, 0, len(ops))
	for i, op := range ops {
		tok := ld.lane.begin("control.query.interval_cold", uint64(i))
		t0 := time.Now()
		_, err := sw.sys.QueryInterval(op.port, op.start, op.end)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		ld.lane.end(tok)
		if err != nil {
			return err
		}
	}
	after, _ := sw.sys.HistoryStats()
	ld.layer["control.query.interval_cold_us"] = newDist(lat).P(50)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		ld.layer["histstore.cache_hit_share"] = float64(hits) / float64(hits+misses)
	}
	return nil
}

// direct times exported functions on checkpoints captured from rung r3.
func (ld *ladder) direct() error {
	if len(ld.captured) == 0 {
		return fmt.Errorf("no non-empty checkpoint captured")
	}
	timeIt := func(name string, n int, fn func(i int)) float64 {
		tok := ld.lane.begin(name, 0)
		defer ld.lane.end(tok)
		lat := make([]float64, n)
		for i := range lat {
			t0 := time.Now()
			fn(i)
			lat[i] = float64(time.Since(t0).Nanoseconds())
		}
		return newDist(lat).P(50)
	}
	l := ld.layer
	l["timewindow.snapshot_us"] = timeIt("timewindow.snapshot", 10*directReps, func(i int) { ld.tw[i%len(ld.tw)].Snapshot() }) / 1e3
	l["qmonitor.snapshot_us"] = timeIt("qmonitor.snapshot", 10*directReps, func(i int) { ld.qm[i%len(ld.qm)].Snapshot() }) / 1e3

	recs := make([]*histstore.Record, len(ld.captured))
	for i, cp := range ld.captured {
		recs[i] = &histstore.Record{Port: 0, FreezeTime: cp.FreezeTime, PrevFreeze: cp.PrevFreeze, TW: cp.TW, QM: cp.QM}
	}
	n := len(recs) * directReps
	payloads := make([][]byte, len(recs))
	var encErr error
	var buf []byte
	l["histstore.encode_us"] = timeIt("histstore.encode", n, func(i int) {
		out, err := histstore.EncodeRecord(buf[:0], recs[i%len(recs)])
		if err != nil {
			encErr = err
		}
		buf = out
		if payloads[i%len(recs)] == nil {
			payloads[i%len(recs)] = append([]byte(nil), out...)
		}
	}) / 1e3
	if encErr != nil {
		return encErr
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	l["histstore.encoded_bytes"] = float64(total) / float64(len(payloads))

	dir, err := os.MkdirTemp(scratchRoot, "pqbench-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := histstore.Open(histstore.Options{Dir: dir}, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	var appErr error
	l["histstore.append_us"] = timeIt("histstore.append", n, func(i int) {
		rec := *recs[i%len(recs)]
		// The log wants ascending freeze times; the payload is what costs.
		rec.PrevFreeze, rec.FreezeTime = uint64(i)+1, uint64(i)+2
		if err := store.Append(&rec); err != nil {
			appErr = err
		}
	}) / 1e3
	store.Close()
	if appErr != nil {
		return appErr
	}

	var decErr error
	l["histstore.decode_us"] = timeIt("histstore.decode", n, func(i int) {
		if _, err := histstore.DecodeRecord(payloads[i%len(payloads)]); err != nil {
			decErr = err
		}
	}) / 1e3
	if decErr != nil {
		return decErr
	}
	filtered := make([]*timewindow.Filtered, len(recs))
	l["timewindow.filter_build_us"] = timeIt("timewindow.filter", n, func(i int) {
		filtered[i%len(recs)] = recs[i%len(recs)].TW.Filter()
	}) / 1e3
	cfg := ld.r.in.preset.TW
	coeff := cfg.Coefficients()
	var counts flow.Counts
	l["timewindow.accumulate_us_per_checkpoint"] = timeIt("timewindow.accumulate", n, func(i int) {
		acc := timewindow.NewAccumulator(cfg.T, coeff)
		filtered[i%len(recs)].AccumulateInto(acc, recs[i%len(recs)].PrevFreeze, recs[i%len(recs)].FreezeTime)
		counts = acc.Counts()
	}) / 1e3

	keys := make([]flow.Key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return fmt.Errorf("captured checkpoint holds no flow")
	}
	strs := make([]string, len(keys))
	// One call is too short for the clock: time the whole key set and
	// divide.
	l["flow.key_string_ns"] = timeIt("flow.key_string", directReps, func(int) {
		for i, k := range keys {
			strs[i] = k.String()
		}
	}) / float64(len(keys))
	var parseErr error
	l["flow.parse_key_ns"] = timeIt("flow.parse_key", directReps, func(int) {
		for _, s := range strs {
			if _, err := flow.ParseKey(s); err != nil {
				parseErr = err
			}
		}
	}) / float64(len(strs))
	if parseErr != nil {
		return parseErr
	}
	l["flow.topk_us"] = timeIt("flow.topk", 10*directReps, func(int) { counts.TopK(topK) }) / 1e3
	return nil
}

// setupLayers reports what set-up itself timed, and replays a slice of the
// first port's trace down a three-hop chain when the workload has none of
// its own, so the chain's per-packet cost is priced on every workload.
func (ld *ladder) setupLayers() {
	in := ld.r.in
	if in.chainPkts == 0 {
		small := &inputs{w: in.w, preset: experiments.Preset(in.w.Preset, in.w.PktsPerPort/ladderShare, trafficSeed)}
		if pkts, err := small.generate(0, trafficSeed, func(c *trace.Config) { c.Packets = in.w.PktsPerPort / ladderShare }); err == nil {
			if err := small.runChain(3, values(pkts), nil); err == nil {
				in.chainNs, in.chainPkts = small.chainNs, small.chainPkts
			}
		}
	}
	l := ld.layer
	if in.genPkts > 0 {
		l["trace.generate_ns_per_pkt"] = float64(in.genNs) / float64(in.genPkts)
	}
	if in.injectPkts > 0 {
		l["switchsim.inject_ns_per_pkt"] = float64(in.injectNs) / float64(in.injectPkts)
	} else {
		l["switchsim.inject_ns_per_pkt"] = float64(in.chainNs) / float64(in.chainPkts)
	}
	if in.chainPkts > 0 {
		l["switchsim.chain_ns_per_pkt"] = float64(in.chainNs) / float64(in.chainPkts)
	}
}
