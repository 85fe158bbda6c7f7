package main

import (
	"fmt"
	"runtime"
	"time"
)

// run is one execution of a workload: set-up (repeated, for a steady
// setup_s), the timed regions, and the correctness checks. It leaves the
// stack open so a traced run can hang its ladders on it.
type run struct {
	w workload
	// seed draws the operations over the (fixed) traffic: the order of the
	// victims, the wide windows, the live issuer's picks.
	seed   uint64
	traced bool
	rec    *recorder
	prog   programSpans // the program's own tracer, rolled up (traced runs)

	in *inputs
	st *stack

	e2e   map[string]float64
	layer map[string]float64
	notes []string // human-readable distributions and sample counts

	attempted, failed int64
	failures          []string

	// ingest bookkeeping of the last feed.
	fedPkts               int64
	ingestNs, ingestCPUNs int64
	ingestAllocBytes      uint64
	reopenNs, warmNs      int64
	replayed              int64

	// A run feeds each of its stacks once (history_fleet: once per set-up).
	// closedRates and closedCPURates are each closed-loop feed's packets per
	// wall second and per CPU second, at its median round; fresh and
	// freshAtSwitch pool the freshness samples of every feed.
	closedRates, closedCPURates []float64
	fresh, freshAtSwitch        []freshSample
	checkpoints                 int // expected by the last feed's plans

	hopAnswers, mirrorAnswers int // over every collector phase
}

func (r *run) close() {
	if r.st != nil {
		r.st.close()
		r.st = nil
	}
}

// absorbTraces rolls a stack's tracers into the run's totals. A traced
// query's server spans come back on the wire and are folded into the
// client's trace, so the client-side tracers carry every stage but one:
// the reply's write, which ends after the reply has left and is taken from
// the switches' own tracers.
func (r *run) absorbTraces(st *stack) {
	if r.prog == nil {
		return
	}
	r.prog.absorb("", st.clientTracer, st.fleetTracer)
	for _, sw := range st.sws {
		r.prog.absorb("server.write", sw.sys.Tracer())
	}
}

func (r *run) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("%d× ", n)+fmt.Sprintf(format, args...))
	}
}

// execute runs the workload. firstStart is when the first set-up began
// (the process start, for the run a user sees).
func (r *run) execute(firstStart time.Time) error {
	r.e2e = make(map[string]float64)
	r.layer = make(map[string]float64)
	// Set-up is repeated and setup_s is the median, as the driver's contract
	// asks: a single set-up of a few hundred milliseconds is mostly noise.
	// Only the last stack is kept.
	var setups []float64
	ln := r.rec.lane("setup")
	reps := setupReps
	if r.traced {
		reps = 1 // setup_s always comes from the untraced run
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = firstStart
		}
		r.close()
		tok := ln.begin("setup", uint64(rep))
		err := r.setUp()
		ln.end(tok)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.notes = append(r.notes, fmt.Sprintf("setup_s: median of %d set-ups %.3f", len(setups), setups))
	// Further stacks over the same inputs, fed for their ingest rate alone.
	for s := 0; s < r.w.RateStacks; s++ {
		opts := fullStack(r.w, r.traced)
		opts.rounds, opts.tail = rateStackRounds, 0
		st, err := newStack(r.in, opts)
		if err != nil {
			return err
		}
		err = r.ingest(st)
		st.close()
		if err != nil {
			return err
		}
	}
	if !r.w.Reopen {
		if err := r.ingest(r.st); err != nil {
			return err
		}
	}
	r.ingestMetrics()
	r.diagnose()
	r.procMetrics()
	return nil
}

// setUp makes the inputs and the stack. For history_fleet it also ingests,
// reopens every System on its log and warms the mirrors.
func (r *run) setUp() error {
	in, err := makeInputs(r.w)
	if err != nil {
		return err
	}
	r.in = in
	if r.st, err = newStack(in, fullStack(r.w, r.traced)); err != nil {
		return err
	}
	if !r.w.Reopen {
		return nil
	}
	if err := r.ingest(r.st); err != nil {
		return err
	}
	r.reopenNs, r.warmNs, r.replayed, err = r.st.reopen()
	return err
}

// ingest feeds every switch's plan — closed loop or to live_switch's
// schedule, then the paced tail — and waits until the collector has
// answered for every checkpoint the feed retired, the final freezes
// included. The counters it leaves describe the last stack fed.
func (r *run) ingest(st *stack) error {
	probe := st.startProbe(r.traced)
	var li *liveIssuer
	liveDone := make(chan struct{})
	if r.w.OpenLoop {
		sw := st.sws[0]
		feedS := float64(sw.plan.total) / r.w.FeedRate
		// Leave the issuer a margin at both ends: it starts after the first
		// checkpoints retire and must not outlast the feed.
		n := int(r.w.QueryRate * (feedS*0.95 - 0.1))
		if n < 20 {
			n = 20
		}
		li = newLiveIssuer(sw, r.seed, n, r.w.QueryRate)
		go func() { defer close(liveDone); li.run(r.rec) }()
	}

	runtime.GC()
	before := readProc()
	ln := r.rec.lane("feeder")
	t0, cpu0 := nowNs(), cpuNow()
	var feedLate []float64
	r.fedPkts = 0
	r.layer["control.checkpoint.infeasible_flips"] = 0
	var pktsFed, wallS, cpuS float64 // closed-loop rounds, at each switch's median round rate
	stamped := 0                     // checkpoints fed before the switch now feeding
	for _, sw := range st.sws {
		// live_switch is paced throughout; a closed-loop feed only in its
		// tail, and only once the collector has caught up with the
		// closed-loop part: the tail measures the pipeline, not the backlog
		// it inherited.
		plan := sw.plan
		var pc *pacer
		pace := func(round int) *pacer {
			switch {
			case r.w.OpenLoop && pc == nil:
				pc = newPacer(r.w.FeedRate, feedBurst)
			case !r.w.OpenLoop && round >= plan.tailFrom && pc == nil:
				// The closed loop's last trigger packets may still sit in a
				// part-filled batch on this side of the ring.
				sw.pl.Flush()
				probe.awaitSeen(stamped+plan.flipsBefore(plan.tailFrom), 10*time.Second)
				pc = newPacer(r.w.TailRate, feedBurst)
			}
			return pc
		}
		tok := ln.begin("control.ingest.feed", uint64(sw.hop))
		r.fedPkts += plan.feed(sw.sink(), pace, ln)
		ln.end(tok)
		tok = ln.begin("control.checkpoint.finalize", uint64(sw.hop))
		err := sw.finishIngest()
		ln.end(tok)
		if err != nil {
			return err
		}
		stamped += len(plan.flips)
		if r.w.OpenLoop {
			feedLate = pc.lateNs
		}
		// The median round: one stall (an fsync at a segment seal, a GC
		// cycle) then costs one sample, not the figure. Switches are
		// combined by the time each would take at its median rate, since a
		// chain's hops carry different streams.
		wall, cpu := plan.roundRates(0, plan.tailFrom)
		if n := float64(len(plan.sw.stream)) * float64(len(wall)); n > 0 && len(cpu) == len(wall) {
			pktsFed, wallS, cpuS = pktsFed+n, wallS+n/median(wall), cpuS+n/median(cpu)
		}
	}
	checkpoints := 0
	for _, sw := range st.sws {
		checkpoints += len(sw.plan.flips)
	}
	tok := ln.begin("fresh.await", 0)
	missing := probe.wait(5 * time.Second)
	ln.end(tok)
	r.attempted += int64(checkpoints)
	r.fail(missing, "checkpoints never reached the harness's subscriber")
	r.fail(probe.timeouts, "checkpoints not queryable at the collector within %v", freshTimeout)
	r.ingestNs, r.ingestCPUNs = nowNs()-t0, cpuNow()-cpu0
	if wallS > 0 && cpuS > 0 {
		r.closedRates, r.closedCPURates = append(r.closedRates, pktsFed/wallS), append(r.closedCPURates, pktsFed/cpuS)
	}
	after := readProc()
	r.ingestAllocBytes = after.alloc - before.alloc

	if li != nil {
		<-liveDone
	}

	// The program must have seen exactly what was fed and logged every
	// checkpoint the plan predicted (plus one guard per port).
	r.attempted++
	var observed int64
	for _, sw := range st.sws {
		s := sw.sys.Stats()
		observed += s.PacketsObserved
		want := len(sw.plan.flips) + len(sw.in.ports)
		if s.Checkpoints != want {
			r.fail(1, "%s took %d checkpoints, the plan predicted %d", sw.id, s.Checkpoints, want)
		}
		hs, _ := sw.sys.HistoryStats()
		r.fail(int(hs.AppendErrors), "history append errors on %s", sw.id)
		if hs.Appended != int64(want) {
			r.fail(1, "%s logged %d checkpoints, expected %d", sw.id, hs.Appended, want)
		}
		r.layer["control.checkpoint.infeasible_flips"] += float64(s.InfeasibleFlips)
	}
	if observed != r.fedPkts {
		r.fail(1, "PacketsObserved %d != fed %d", observed, r.fedPkts)
	}

	r.fresh, r.freshAtSwitch = append(r.fresh, probe.samples...), append(r.freshAtSwitch, probe.atSwitch...)
	r.checkpoints = checkpoints
	if r.w.OpenLoop {
		r.liveMetrics(li, feedLate)
	} else {
		// A closed loop has no schedule to be late for.
		r.layer["gen.feed_late_p99_us"], r.layer["gen.query_late_p99_us"] = 0, 0
	}
	r.streamCounters(st)
	return nil
}

// portMedian is the mean over ports of each port's median of pick(sample).
// Ports flip together — one poll period, started together — so their
// checkpoints reach the one snapshotter in bursts, and a checkpoint's lag is
// set by its port's place in the burst. The pooled distribution is a
// staircase whose median sits on the edge between two steps and falls to
// either side from run to run; each port's own median does not.
func portMedian(samples []freshSample, pick func(freshSample) float64) float64 {
	type hopPort struct{ hop, port int }
	byPort := make(map[hopPort][]float64)
	for _, s := range samples {
		k := hopPort{s.hop, s.port}
		byPort[k] = append(byPort[k], pick(s))
	}
	var sum float64
	for _, v := range byPort {
		sum += median(v)
	}
	if len(byPort) == 0 {
		return 0
	}
	return sum / float64(len(byPort))
}

// freshMetrics reports the freshness samples of every feed of the run.
func (r *run) freshMetrics() {
	// The headline samples are the paced ones: the tail of a closed-loop
	// feed, or all of live_switch's.
	var paced, atSwitch []freshSample
	var saturated []float64
	for _, s := range r.fresh {
		if s.tail || r.w.OpenLoop {
			paced = append(paced, s)
		} else {
			saturated = append(saturated, s.collectMs)
		}
	}
	for _, s := range r.freshAtSwitch {
		if s.tail || r.w.OpenLoop {
			atSwitch = append(atSwitch, s)
		}
	}
	collect := func(s freshSample) float64 { return s.collectMs }
	stream := func(s freshSample) float64 { return s.streamMs }
	var colMs, strMs []float64
	for _, s := range paced {
		colMs, strMs = append(colMs, s.collectMs), append(strMs, s.streamMs)
	}
	col, str, sat := newDist(colMs), newDist(strMs), newDist(saturated)
	r.e2e["fresh_p50_ms"] = portMedian(paced, collect)
	r.layer["fresh.collector_p90_ms"] = col.P(90)
	r.layer["fresh.collector_p99_ms"] = col.P(99)
	r.layer["fresh.streamed_p50_ms"] = portMedian(paced, stream)
	r.layer["fresh.switch_p50_ms"] = portMedian(atSwitch, stream)
	r.layer["fresh.closed_loop_p50_ms"] = sat.P(50)
	r.layer["control.checkpoint.count"] = float64(r.checkpoints)
	r.notes = append(r.notes,
		"freshness at collector, paced feed, all ports pooled, ms: "+col.String(),
		"freshness at subscriber, paced feed, all ports pooled, ms: "+str.String())
	if sat.N > 0 {
		r.notes = append(r.notes, "freshness at collector, closed-loop feed, ms: "+sat.String())
	}
}

// ingestMetrics turns the ingest bookkeeping into metrics; for
// history_fleet the ingest they describe happened inside set-up.
func (r *run) ingestMetrics() {
	r.freshMetrics()
	// A closed-loop workload reports the mean over its feeds of each feed's
	// median round; the paced feed of live_switch the rate delivered and the
	// CPU the whole region used.
	if r.w.OpenLoop {
		r.e2e["ingest_pkts_per_s"] = float64(r.fedPkts) / (float64(r.ingestNs) / 1e9)
		r.e2e["ingest_pkts_per_cpu_s"] = float64(r.fedPkts) / (float64(r.ingestCPUNs) / 1e9)
	} else {
		r.e2e["ingest_pkts_per_s"] = mean(r.closedRates)
		r.e2e["ingest_pkts_per_cpu_s"] = mean(r.closedCPURates)
		r.notes = append(r.notes, fmt.Sprintf("closed-loop pkts/s per feed, at the median round: %.4g", r.closedRates))
	}
	if r.fedPkts > 0 {
		r.layer["proc.alloc_bytes_per_pkt"] = float64(r.ingestAllocBytes) / float64(r.fedPkts)
	}
	r.recoveryMetrics()
}

// recoveryMetrics reports the last reopen of the stack on its logs:
// history_fleet's set-up, or the traced run's cold query ladder.
func (r *run) recoveryMetrics() {
	r.layer["histstore.reopen_ms"] = float64(r.reopenNs) / 1e6
	r.layer["fleet.mirror_warm_s"] = float64(r.warmNs) / 1e9
	if r.warmNs > 0 {
		r.layer["histstore.replay_records_per_s"] = float64(r.replayed) / (float64(r.warmNs) / 1e9)
	}
}

// streamCounters reads the checkpoint-path counters while the ingest's own
// collector and subscribers are still attached (a reopen replaces them).
func (r *run) streamCounters(st *stack) {
	var encoded, appended, frames, resyncs, backNs, batches int64
	for _, sw := range st.sws {
		hs, _ := sw.sys.HistoryStats()
		encoded += hs.EncodedBytes
		appended += hs.Appended
		if sw.sub != nil {
			frames += sw.sub.frames.Load()
			resyncs += sw.sub.resyncs.Load()
		}
		reg := sw.sys.Telemetry()
		backNs += seriesSum(reg, "printqueue_pipeline_backpressure_wait_ns_total")
		batches += seriesSum(reg, "printqueue_pipeline_batches_total")
	}
	if appended > 0 {
		r.e2e["log_bytes_per_checkpoint"] = float64(encoded) / float64(appended)
	}
	r.layer["control.stream.frames"] = float64(frames)
	r.layer["control.stream.resyncs"] = float64(resyncs + counterValue(st.colReg, "printqueue_fleet_stream_resyncs_total"))
	r.layer["fleet.stream_bytes"] = float64(counterValue(st.colReg, "printqueue_fleet_stream_bytes_total"))
	r.layer["control.ingest.batches"] = float64(batches)
	if r.fedPkts > 0 {
		r.layer["control.ingest.backpressure_ns_per_pkt"] = float64(backNs) / float64(r.fedPkts)
	}
}

// Schedule lateness beyond these makes an open-loop run say nothing about
// the program: the generator, not the program, was the bottleneck.
const (
	maxFeedLateUs  = 20000
	maxQueryLateUs = 50000
)

func (r *run) liveMetrics(li *liveIssuer, feedLate []float64) {
	feed, query := newDist(feedLate), newDist(li.lateNs)
	r.layer["gen.feed_late_p99_us"] = feed.P(99) / 1e3
	r.layer["gen.query_late_p99_us"] = query.P(99) / 1e3
	// The check uses the highest percentile each generator's sample
	// supports: one hiccup among the issuer's few hundred diagnoses is its
	// p99, and says nothing about whether the schedule was held.
	r.attempted += 2
	if p := feed.Highest; p > 0 && feed.P(p)/1e3 > maxFeedLateUs {
		r.fail(1, "feeder p%g lateness %.0f µs > %d µs: the schedule was not held", p, feed.P(p)/1e3, maxFeedLateUs)
	}
	if p := query.Highest; p > 0 && query.P(p)/1e3 > maxQueryLateUs {
		r.fail(1, "query issuer p%g lateness %.0f µs > %d µs: the schedule was not held", p, query.P(p)/1e3, maxQueryLateUs)
	}
	r.notes = append(r.notes, "feeder lateness, ns: "+feed.String(), "query issuer lateness, ns: "+query.String())
	r.narrowLatency(li.phase())
}

// narrowLatency reports the narrow diagnoses' latency and rate, counts
// their failures and cross-checks the kept answers for bit-identity.
func (r *run) narrowLatency(ph *phaseResult) {
	lat := newDist(ph.latencies())
	r.e2e["diag_narrow_p50_us"] = lat.P(50)
	r.layer["diag.narrow_p99_us"] = lat.P(99)
	r.layer["diag.per_s"] = float64(len(ph.ops)) / (float64(ph.wallNs) / 1e9)
	r.notes = append(r.notes, "narrow diagnosis latency, µs: "+lat.String())
	r.attempted += int64(len(ph.ops))
	r.fail(ph.failed(), "narrow diagnoses failed")
	checked, bad := r.st.crossCheck(ph)
	r.attempted += int64(checked)
	r.fail(bad, "answers not bit-identical to the switch's own over the wire")
	r.hopAnswers, r.mirrorAnswers = r.hopAnswers+ph.hops, r.mirrorAnswers+ph.mirror
}

// diagnose runs the closed-loop diagnosis phases, one pass each, and reports
// each phase's median. live_switch's narrow latency is the open-loop
// issuer's, measured beside the feed; its closed-loop narrow phase is there
// for the accuracy figures, which need the same questions on every run.
func (r *run) diagnose() {
	st := r.st
	phase := func(name string, ops []diagOp, keep bool) (*phaseResult, uint64) {
		// A collection first, as testing.B does before each benchmark: every
		// phase then starts from the same heap state.
		runtime.GC()
		before := readProc()
		ph := st.runPhase(name, ops, keep, r.rec)
		return ph, readProc().mallocs - before.mallocs
	}
	narrow, mallocs := phase("narrow", newOpGen(st, r.seed, 1).narrow(r.w.Narrow), true)
	wide, _ := phase("wide", newOpGen(st, r.seed, 2).wide(r.w.Wide), false)
	dash, _ := phase("dash", newOpGen(st, r.seed, 4).dash(r.w.Dash), false)

	if r.w.OpenLoop {
		r.attempted += int64(len(narrow.ops))
		r.fail(narrow.failed(), "narrow diagnoses failed")
		r.hopAnswers, r.mirrorAnswers = r.hopAnswers+narrow.hops, r.mirrorAnswers+narrow.mirror
	} else {
		r.narrowLatency(narrow)
	}
	precision, recall, n := st.score(narrow)
	r.e2e["diag_precision"], r.e2e["diag_recall"] = precision, recall
	r.notes = append(r.notes, fmt.Sprintf("accuracy over %d hop answers: precision %.4f recall %.4f", n, precision, recall))
	r.layer["proc.allocs_per_diag"] = float64(mallocs) / float64(len(narrow.ops))

	wideLat, dashLat := newDist(wide.latencies()), newDist(dash.latencies())
	r.layer["diag.wide_p50_ms"] = wideLat.P(50) / 1e3
	r.layer["diag.dash_p50_us"] = dashLat.P(50)
	r.notes = append(r.notes, "wide diagnosis latency, µs: "+wideLat.String(), "dash diagnosis latency, µs: "+dashLat.String())
	if dash.mirror > 0 {
		r.layer["fleet.memo_hit_share"] = float64(dash.memoHit) / float64(dash.mirror)
	}
	r.attempted += int64(len(wide.ops) + len(dash.ops))
	r.fail(wide.failed(), "wide diagnoses failed")
	r.fail(dash.failed(), "dash diagnoses failed")
	r.layer["fleet.fallbacks"] = float64(counterValue(st.colReg, "printqueue_fleet_stream_fallbacks_total"))
	r.hopAnswers, r.mirrorAnswers = r.hopAnswers+wide.hops+dash.hops, r.mirrorAnswers+wide.mirror+dash.mirror
	if r.hopAnswers > 0 {
		r.layer["fleet.mirror_served_share"] = float64(r.mirrorAnswers) / float64(r.hopAnswers)
	}
}

func (r *run) procMetrics() {
	p := readProc()
	r.layer["proc.cpu_s"] = float64(p.cpuNs) / 1e9
	r.layer["proc.peak_rss_mb"] = float64(p.maxRSS) / 1024
	r.layer["proc.gc_cpu_share"] = p.gcFrac
}

// correct is the run's overall verdict: no failed operation, and an
// attribution a user could act on. A workload-mean precision or recall
// under one half fails the run outright rather than being counted per op.
func (r *run) correct() bool {
	return r.failed == 0 && r.e2e["diag_precision"] >= 0.5 && r.e2e["diag_recall"] >= 0.5
}
