package printqueue

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per result; see EXPERIMENTS.md for the mapping)
// and measures the per-packet datapath cost and analysis-program query
// rate. Reproduced quantities are attached to the benchmark output as
// custom metrics (precision, recall, MB/s, ...), so
//
//	go test -bench=. -benchmem
//
// prints the paper's numbers alongside the timing. Ablation benchmarks
// quantify the design choices DESIGN.md calls out: the one-shot passing
// rule, coefficient recovery, exponential versus uniform windows, the
// queue monitor's sequence filter, and data-plane versus asynchronous
// queries.

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"printqueue/internal/baseline/flowradar"
	"printqueue/internal/baseline/hashpipe"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/experiments"
	"printqueue/internal/flow"
	"printqueue/internal/groundtruth"
	"printqueue/internal/metrics"
	"printqueue/internal/pktrec"
	"printqueue/internal/switchsim"
	"printqueue/internal/tcpsim"
	"printqueue/internal/trace"
)

const (
	benchPackets = 300000
	benchVictims = 60
	benchSeed    = 1
)

// --- Figure 9: accuracy vs queue depth, AQ and DQ, three workloads ---

func benchFig9(b *testing.B, w trace.Workload) {
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig9(w, benchPackets, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	var aqp, aqr, dqp, dqr metrics.Sample
	for _, r := range res.Rows {
		if r.AQVictims > 0 {
			aqp.Add(r.AQPrecision)
			aqr.Add(r.AQRecall)
		}
		if r.DQVictims > 0 {
			dqp.Add(r.DQPrecision)
			dqr.Add(r.DQRecall)
		}
	}
	b.ReportMetric(aqp.Mean(), "AQ-precision")
	b.ReportMetric(aqr.Mean(), "AQ-recall")
	b.ReportMetric(dqp.Mean(), "DQ-precision")
	b.ReportMetric(dqr.Mean(), "DQ-recall")
}

func BenchmarkFig9UW(b *testing.B) { benchFig9(b, trace.UW) }
func BenchmarkFig9WS(b *testing.B) { benchFig9(b, trace.WS) }
func BenchmarkFig9DM(b *testing.B) { benchFig9(b, trace.DM) }

// --- Table 2: PrintQueue vs HashPipe vs FlowRadar averages ---

func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(benchPackets/2, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PQPrecision, r.Trace.String()+"-PQ-P")
		b.ReportMetric(r.PQRecall, r.Trace.String()+"-PQ-R")
		b.ReportMetric(r.HPPrecision, r.Trace.String()+"-HP-P")
		b.ReportMetric(r.FRPrecision, r.Trace.String()+"-FR-P")
	}
}

// --- Figure 10: accuracy CDFs in three occupancy bands (UW) ---

func BenchmarkFig10(b *testing.B) {
	var bands []experiments.Fig10Band
	for i := 0; i < b.N; i++ {
		var err error
		bands, err = experiments.Fig10(benchPackets, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, band := range bands {
		if n := len(band.PQPrec); n > 0 {
			b.ReportMetric(band.PQPrec[n/2], band.Band+"-PQ-P50")
			b.ReportMetric(band.HPPrec[len(band.HPPrec)/2], band.Band+"-HP-P50")
		}
	}
}

// --- Figure 11: parameter variants vs the baselines (UW) ---

func benchFig11(b *testing.B, v experiments.Fig11Variant) {
	var res *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig11(v, benchPackets, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pq, hp metrics.Sample
	for _, r := range res.Rows {
		if r.Victims > 0 {
			pq.Add(r.PQPrecision)
			hp.Add(r.HPPrecision)
		}
	}
	b.ReportMetric(pq.Mean(), "PQ-median-P")
	b.ReportMetric(hp.Mean(), "HP-median-P")
}

func BenchmarkFig11Alpha2T4(b *testing.B) {
	benchFig11(b, experiments.Fig11Variant{Alpha: 2, K: 12, T: 4})
}
func BenchmarkFig11Alpha2T5(b *testing.B) {
	benchFig11(b, experiments.Fig11Variant{Alpha: 2, K: 12, T: 5})
}
func BenchmarkFig11Alpha3T4(b *testing.B) {
	benchFig11(b, experiments.Fig11Variant{Alpha: 3, K: 12, T: 4})
}

// --- Figure 12: Top-K accuracy per individual window (UW) ---

func BenchmarkFig12(b *testing.B) {
	var rows []experiments.Fig12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig12(benchPackets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.K == 0 && (r.Window == 0 || r.Window == 4) {
			suffix := "w0"
			if r.Window == 4 {
				suffix = "w4"
			}
			b.ReportMetric(r.Precision, suffix+"-all-P")
			b.ReportMetric(r.Recall, suffix+"-all-R")
		}
	}
}

// --- Figure 13: storage overhead vs accuracy ---

func BenchmarkFig13(b *testing.B) {
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig13(benchPackets/2, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MBps, r.Config.Label()+"-MBps")
		b.ReportMetric(r.Precision, r.Config.Label()+"-P")
	}
}

// --- Figure 14: storage ratio and SRAM (analytic) ---

func BenchmarkFig14(b *testing.B) {
	var a []experiments.Fig14aRow
	var bb []experiments.Fig14bRow
	for i := 0; i < b.N; i++ {
		a = experiments.Fig14a()
		bb = experiments.Fig14b()
	}
	var maxRatio float64
	for _, r := range a {
		if r.Ratio > maxRatio {
			maxRatio = r.Ratio
		}
	}
	b.ReportMetric(maxRatio, "max-linear:exp-ratio")
	for _, r := range bb {
		if r.K == 12 && r.T == 5 {
			b.ReportMetric(r.Utilization, "k12T5-SRAM%")
		}
	}
}

// --- Figure 15: accuracy vs activated ports (WS) ---

func BenchmarkFig15(b *testing.B) {
	var rows []experiments.Fig15Point
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig15(benchPackets/3, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.Precision, "1port-P")
	b.ReportMetric(last.Precision, "10port-P")
	b.ReportMetric(last.SRAMPercent, "10port-SRAM%")
}

// --- Figure 16: the queue-monitor case study ---

func BenchmarkFig16(b *testing.B) {
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig16(0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CongestionDurationNs)/float64(res.BurstDurationNs), "congestion:burst")
	b.ReportMetric(res.Direct.Burst, "direct-burst%")
	b.ReportMetric(res.Indirect.Burst, "indirect-burst%")
	b.ReportMetric(res.Original.Burst, "original-burst%")
}

// --- Datapath microbenchmarks ---

// BenchmarkTimeWindowInsert measures Algorithm 1 per packet at the paper's
// UW configuration.
func BenchmarkTimeWindowInsert(b *testing.B) {
	cfg := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	w, err := timewindow.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(64)
	b.ResetTimer()
	var ts uint64
	for i := 0; i < b.N; i++ {
		ts += 80
		w.Insert(keys[i&63].internal(), ts)
	}
}

// BenchmarkQueueMonitorObserve measures the queue monitor per packet.
func BenchmarkQueueMonitorObserve(b *testing.B) {
	m, err := qmonitor.New(qmonitor.Config{MaxDepthCells: 32768, GranuleCells: 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(64)
	rng := rand.New(rand.NewPCG(1, 2))
	depths := make([]int, 1024)
	for i := range depths {
		depths[i] = rng.IntN(32768)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(keys[i&63].internal(), depths[i&1023])
	}
}

// BenchmarkSwitchPerPacket measures the full simulated egress path:
// enqueue, drain, metadata stamping, PrintQueue update.
func BenchmarkSwitchPerPacket(b *testing.B) {
	sw, err := switchsim.NewSwitch(1, switchsim.PortConfig{LinkBps: 10e9, BufferCells: 40000})
	if err != nil {
		b.Fatal(err)
	}
	pq, err := New(DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	sw.Port(0).AddEgressHook(switchsim.EgressFunc(func(p *pktrec.Packet) {
		pq.inner.OnDequeue(p)
	}))
	keys := benchKeys(64)
	b.ResetTimer()
	var ts uint64
	for i := 0; i < b.N; i++ {
		ts += 70 // slightly over line rate: persistent queue
		pkt := &pktrec.Packet{Flow: keys[i&63].internal(), Bytes: 100, Arrival: ts}
		sw.Inject(pkt)
	}
}

// --- Sharded ingestion pipeline ---

// benchIngestConfig is the multi-port configuration shared by the pipeline
// and serial throughput benchmarks: the paper's UW datapath with a bounded
// checkpoint history so long runs don't accumulate snapshots.
func benchIngestConfig(nports int) Config {
	ports := make([]int, nports)
	for i := range ports {
		ports[i] = i
	}
	cfg := DefaultConfig(ports...)
	cfg.PollPeriod = time.Millisecond
	cfg.MaxCheckpoints = 8
	return cfg
}

// benchIngestPacket computes the i-th packet of the synthetic multi-port
// stream: ports round-robin, each port advancing its clock at line rate.
func benchIngestPacket(i, nports int, ts []uint64, keys []FlowID) (Packet, uint64, uint64) {
	port := i % nports
	ts[port] += 80 * uint64(nports)
	deq := ts[port] + 1000
	return Packet{Flow: keys[i&63], Port: port, Queue: 0, Bytes: 100}, deq - 500, deq
}

// BenchmarkPipelineThroughput measures aggregate ingestion through the
// sharded pipeline at 1, 4, and 16 activated ports. Pipeline start and
// Close (flush + drain) are inside the timed region, so pkts/sec is
// end-to-end. On a multi-core machine aggregate throughput scales with
// shard count; compare against BenchmarkSerialThroughput for the speedup.
func BenchmarkPipelineThroughput(b *testing.B) {
	for _, nports := range []int{1, 4, 16} {
		b.Run("ports="+strconv.Itoa(nports), func(b *testing.B) {
			pq, err := New(benchIngestConfig(nports))
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(64)
			ts := make([]uint64, nports)
			b.ResetTimer()
			pl, err := pq.StartPipeline(PipelineConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				pkt, enq, deq := benchIngestPacket(i, nports, ts, keys)
				pl.Observe(pkt, enq, deq, 40)
			}
			pl.Close()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// BenchmarkSerialThroughput is the single-goroutine baseline for
// BenchmarkPipelineThroughput: the same synthetic multi-port stream fed
// through System.Observe, with flips snapshotting inline on the packet
// path.
func BenchmarkSerialThroughput(b *testing.B) {
	for _, nports := range []int{1, 4, 16} {
		b.Run("ports="+strconv.Itoa(nports), func(b *testing.B) {
			pq, err := New(benchIngestConfig(nports))
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(64)
			ts := make([]uint64, nports)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt, enq, deq := benchIngestPacket(i, nports, ts, keys)
				pq.Observe(pkt, enq, deq, 40)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// BenchmarkQueryRate measures asynchronous query execution (the paper's
// Python front end manages ~100 queries/second; the Go analysis program is
// orders of magnitude faster).
func BenchmarkQueryRate(b *testing.B) {
	preset := experiments.Preset(trace.UW, 200000, benchSeed)
	pkts, err := trace.Generate(preset.Gen)
	if err != nil {
		b.Fatal(err)
	}
	run, err := experiments.Execute(pkts, preset.RunConfigFor(false))
	if err != nil {
		b.Fatal(err)
	}
	victims := run.GT.SampleVictims(groundtruth.DepthBucket(1000, 0), 256)
	if len(victims) == 0 {
		b.Fatal("no victims")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := run.GT.Record(victims[i%len(victims)])
		if _, err := run.Sys.QueryInterval(run.Port, v.EnqTimestamp, v.DeqTimestamp()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Second)/float64(b.Elapsed())*float64(b.N), "queries/sec")
}

// --- Ablations ---

// BenchmarkAblationPassingRule compares the paper's one-shot passing rule
// against naive always-pass. The one-shot rule guarantees a passed packet
// is the newest in its new window; always-pass promotes arbitrarily stale
// evictions, which overwrite newer deep-window cells whenever the traffic
// has gaps. The ablation therefore runs a gappy (bursty, low calm-load)
// stream and diagnoses a recent interval.
func BenchmarkAblationPassingRule(b *testing.B) {
	// A gappy stream: sparse calm traffic separating bursts.
	gen := experiments.Preset(trace.UW, 150000, benchSeed).Gen
	gen.CalmLoad = 0.25
	gen.MeanCalmNs = 2e6
	stream, gt := benchStreamFrom(b, gen)
	cfg := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	var pOne, pAlways, rOne, rAlways float64
	for i := 0; i < b.N; i++ {
		one, _ := timewindow.New(cfg, nil)
		always, _ := timewindow.New(cfg, nil)
		for _, r := range stream {
			one.Insert(r.Flow, r.DeqTimestamp())
			always.InsertAblationAlwaysPass(r.Flow, r.DeqTimestamp())
		}
		start, end := benchOldInterval(cfg, stream)
		truth := gt.CountsInInterval(start, end)
		pOne, rOne = metrics.PrecisionRecall(one.Snapshot().Query(start, end), truth)
		pAlways, rAlways = metrics.PrecisionRecall(always.Snapshot().Query(start, end), truth)
	}
	b.ReportMetric(pOne, "oneshot-P")
	b.ReportMetric(rOne, "oneshot-R")
	b.ReportMetric(pAlways, "alwayspass-P")
	b.ReportMetric(rAlways, "alwayspass-R")
}

// BenchmarkAblationCoefficients compares recovery with and without the
// Algorithm-2 coefficients: without them, deep-window estimates
// under-count by the compression ratio.
func BenchmarkAblationCoefficients(b *testing.B) {
	stream, gt := benchStream(b)
	cfg := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	var rWith, rWithout float64
	for i := 0; i < b.N; i++ {
		w, _ := timewindow.New(cfg, nil)
		for _, r := range stream {
			w.Insert(r.Flow, r.DeqTimestamp())
		}
		start, end := benchOldInterval(cfg, stream)
		truth := gt.CountsInInterval(start, end)
		f := w.Snapshot()
		_, rWith = metrics.PrecisionRecall(f.Query(start, end), truth)
		_, rWithout = metrics.PrecisionRecall(f.QueryWithoutCoefficients(start, end), truth)
	}
	b.ReportMetric(rWith, "with-coeff-R")
	b.ReportMetric(rWithout, "without-coeff-R")
}

// BenchmarkAblationUniformWindows spends the same SRAM on T identical
// windows (equivalently one window with T-fold cells) instead of
// exponentially growing periods: coverage shrinks from
// (2^(aT)-1)/(2^a-1) * 2^(m0+k) to T * 2^(m0+k), so queries beyond the
// uniform horizon return nothing.
func BenchmarkAblationUniformWindows(b *testing.B) {
	stream, gt := benchStream(b)
	exp := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	// Same cell count (4 * 4096 = 2^14) in a single full-fidelity window.
	uni := timewindow.Config{M0: 6, K: 14, Alpha: 1, T: 1, MinPktTxDelayNs: 80}
	var rExp, rUni float64
	for i := 0; i < b.N; i++ {
		we, _ := timewindow.New(exp, nil)
		wu, _ := timewindow.New(uni, nil)
		for _, r := range stream {
			we.Insert(r.Flow, r.DeqTimestamp())
			wu.Insert(r.Flow, r.DeqTimestamp())
		}
		// An interval older than the uniform horizon but inside the
		// exponential set period.
		last := stream[len(stream)-1].DeqTimestamp()
		end := last - uni.SetPeriod() - 200000
		start := end - 100000
		truth := gt.CountsInInterval(start, end)
		_, rExp = metrics.PrecisionRecall(we.Snapshot().Query(start, end), truth)
		_, rUni = metrics.PrecisionRecall(wu.Snapshot().Query(start, end), truth)
	}
	b.ReportMetric(float64(exp.SetPeriod())/float64(uni.SetPeriod()), "coverage-ratio")
	b.ReportMetric(rExp, "exponential-R")
	b.ReportMetric(rUni, "uniform-R")
}

// BenchmarkAblationSeqFilter compares the queue monitor's staircase filter
// against the unfiltered walk: stale peaks survive without the sequence
// numbers and pollute the original-culprit set.
func BenchmarkAblationSeqFilter(b *testing.B) {
	// MTU packets over a fine granule: each arrival jumps many levels, so
	// drains leave stale entries at skipped levels — exactly Figure 7's
	// situation (a small-packet workload overwrites every level on the way
	// up and never exhibits staleness).
	gen := experiments.Preset(trace.WS, 150000, benchSeed).Gen
	stream, gt := benchStreamFrom(b, gen)
	cfg := qmonitor.Config{MaxDepthCells: 65536, GranuleCells: 1}
	// Stale peaks only matter when the queue sits below an earlier high:
	// snapshot at the first packet (after the global peak) that sees less
	// than a third of the peak depth.
	peakIdx, peak := 0, uint32(0)
	for j, r := range stream {
		if r.EnqQdepth > peak {
			peak, peakIdx = r.EnqQdepth, j
		}
	}
	snapIdx := len(stream) - 1
	for j := peakIdx + 1; j < len(stream); j++ {
		if stream[j].EnqQdepth < peak/3 {
			snapIdx = j
			break
		}
	}
	var pFilt, pNo float64
	for i := 0; i < b.N; i++ {
		m, _ := qmonitor.New(cfg, nil)
		for _, r := range stream[:snapIdx+1] {
			m.Observe(r.Flow, int(r.EnqQdepth))
		}
		truth := gt.OriginalTruth(snapIdx)
		snap := m.Snapshot()
		pFilt, _ = metrics.PrecisionRecall(qmonitor.FlowCounts(snap.OriginalCulprits()), truth)
		pNo, _ = metrics.PrecisionRecall(qmonitor.FlowCounts(snap.OriginalCulpritsNoFilter()), truth)
	}
	b.ReportMetric(pFilt, "filtered-P")
	b.ReportMetric(pNo, "unfiltered-P")
}

// BenchmarkAblationDataPlaneQuery contrasts data-plane queries (special
// freeze at the victim's dequeue) with asynchronous queries over periodic
// checkpoints for the same workload — Figure 9's DQ advantage, isolated.
func BenchmarkAblationDataPlaneQuery(b *testing.B) {
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig9(trace.UW, benchPackets/2, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	var aq, dq metrics.Sample
	for _, r := range res.Rows {
		if r.AQVictims > 0 {
			aq.Add(r.AQPrecision)
		}
		if r.DQVictims > 0 {
			dq.Add(r.DQPrecision)
		}
	}
	b.ReportMetric(dq.Mean(), "DQ-P")
	b.ReportMetric(aq.Mean(), "AQ-P")
}

// --- helpers ---

func benchKeys(n int) []FlowID {
	keys := make([]FlowID, n)
	for i := range keys {
		keys[i] = FlowID{
			SrcIP: [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{10, 0, 0, 1},
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6,
		}
	}
	return keys
}

// benchStream runs a UW trace through the switch once and returns the
// dequeue-ordered telemetry (shared by the ablation benches).
func benchStream(b *testing.B) ([]pktrec.Telemetry, *groundtruth.Collector) {
	b.Helper()
	return benchStreamFrom(b, experiments.Preset(trace.UW, 200000, benchSeed).Gen)
}

// benchStreamFrom replays an arbitrary generator config through the switch.
func benchStreamFrom(b *testing.B, gen trace.Config) ([]pktrec.Telemetry, *groundtruth.Collector) {
	b.Helper()
	pkts, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := switchsim.NewSwitch(1, switchsim.PortConfig{LinkBps: gen.LinkBps, BufferCells: 70000})
	if err != nil {
		b.Fatal(err)
	}
	gt := groundtruth.NewCollector()
	sw.Port(0).AddEgressHook(gt)
	for _, p := range pkts {
		sw.Inject(p)
	}
	sw.Flush()
	b.ResetTimer()
	return gt.Records(), gt
}

// benchOldInterval picks a query interval old enough to live in a deep
// window but still inside the set period.
func benchOldInterval(cfg timewindow.Config, stream []pktrec.Telemetry) (uint64, uint64) {
	last := stream[len(stream)-1].DeqTimestamp()
	end := last - 3*cfg.WindowPeriod(0)
	return end - 100000, end
}

var _ = flow.Zero // keep the import for helpers that may move

// --- Extension: scheduler agnosticism ---

// BenchmarkSchedulers runs the same workload under FIFO, strict priority,
// DRR, and PIFO (the §2 claim that culprit definitions are
// scheduling-independent) and reports each discipline's accuracy.
func BenchmarkSchedulers(b *testing.B) {
	var rows []experiments.SchedulerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SchedulerAgnosticism(benchPackets/2, benchSeed, benchVictims)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Precision, r.Scheduler.String()+"-P")
	}
}

// --- Baseline microbenchmarks ---

func BenchmarkHashPipeInsert(b *testing.B) {
	s, err := hashpipe.New(hashpipe.Config{Stages: 5, SlotsPerStage: 4096, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(keys[i&1023].internal())
	}
}

func BenchmarkFlowRadarInsert(b *testing.B) {
	s, err := flowradar.New(flowradar.Config{Cells: 4096 * 4, KHash: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(keys[i&1023].internal())
	}
}

func BenchmarkFlowRadarDecode(b *testing.B) {
	keys := benchKeys(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := flowradar.New(flowradar.Config{Cells: 4096 * 4, KHash: 3, Seed: 1})
		for j, k := range keys {
			for n := 0; n <= j%5; n++ {
				s.Insert(k.internal())
			}
		}
		b.StartTimer()
		counts, _ := s.Decode()
		if len(counts) == 0 {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkCheckpoint measures one frozen register read (snapshot) at the
// paper's UW configuration — the unit of the Figure-13 bandwidth budget.
func BenchmarkCheckpoint(b *testing.B) {
	cfg := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	w, err := timewindow.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(64)
	var ts uint64
	for i := 0; i < 100000; i++ {
		ts += 80
		w.Insert(keys[i&63].internal(), ts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := w.Snapshot()
		if i == 0 && snap == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkAblationDigestWidth quantifies what storing fixed-width flow
// digests per cell (as hardware does) costs at several widths: with 32-bit
// digests the query results are indistinguishable from exact flow IDs,
// supporting §7.1's note that PrintQueue's errors "are not caused by hash
// collisions".
func BenchmarkAblationDigestWidth(b *testing.B) {
	stream, gt := benchStream(b)
	cfg := timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	w, err := timewindow.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range stream {
		w.Insert(r.Flow, r.DeqTimestamp())
	}
	f := w.Snapshot()
	last := stream[len(stream)-1].DeqTimestamp()
	start, end := last-200000, last
	truth := gt.CountsInInterval(start, end)
	exact := f.Query(start, end)
	var p32, p6 float64
	for i := 0; i < b.N; i++ {
		d32 := timewindow.NewDigestTable(32, 5)
		d6 := timewindow.NewDigestTable(6, 5)
		p32, _ = metrics.PrecisionRecall(d32.ApplyDigests(exact), truth)
		p6, _ = metrics.PrecisionRecall(d6.ApplyDigests(exact), truth)
	}
	pExact, _ := metrics.PrecisionRecall(exact, truth)
	b.ReportMetric(pExact, "exact-P")
	b.ReportMetric(p32, "digest32-P")
	b.ReportMetric(p6, "digest6-P")
}

// BenchmarkConQuestComparison regenerates the §8 ConQuest contrast.
func BenchmarkConQuestComparison(b *testing.B) {
	var res *experiments.ConQuestResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ConQuestComparison(benchPackets/2, benchSeed, benchVictims, 20e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OnlineRecall, "conquest-online-R")
	b.ReportMetric(res.AsyncRecall, "conquest-async-R")
	b.ReportMetric(res.PQRecall, "printqueue-R")
}

// BenchmarkFig16TCP regenerates the closed-loop case study.
func BenchmarkFig16TCP(b *testing.B) {
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig16TCP(0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CongestionDurationNs)/float64(res.BurstDurationNs), "congestion:burst")
	b.ReportMetric(res.Original.Burst, "original-burst%")
}

// BenchmarkTCPSimSender measures the closed-loop event loop's cost per
// delivered packet.
func BenchmarkTCPSimSender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := switchsim.NewSwitch(1, switchsim.PortConfig{LinkBps: 10e9, BufferCells: 4000})
		if err != nil {
			b.Fatal(err)
		}
		d := tcpsim.NewDriver(sw, 0)
		if err := d.AddSender(tcpsim.SenderConfig{
			Flow:  benchKeys(1)[0].internal(),
			RTTNs: 100000, Packets: 20000, SSThresh: 1024,
		}); err != nil {
			b.Fatal(err)
		}
		d.Run(1e9)
		sw.Flush()
	}
}

// BenchmarkPipelineIngestAllocs pins the instrumented ingestion hot path
// at zero allocations per packet: Observe copies the record into the
// current batch by value, batches recycle through the pool, and the
// telemetry updates (occupancy gauge, watermark, worker counters) are
// per-batch atomics. Run with -benchmem; allocs/op must stay 0.
func BenchmarkPipelineIngestAllocs(b *testing.B) {
	const nports = 4
	cfg := benchIngestConfig(nports)
	// Push flips out of the run so the measurement isolates the ingest
	// path: checkpoint copies allocate by design, on the snapshotter.
	cfg.PollPeriod = time.Hour
	pq, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(64)
	ts := make([]uint64, nports)
	pl, err := pq.StartPipeline(PipelineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, enq, deq := benchIngestPacket(i, nports, ts, keys)
		pl.Observe(pkt, enq, deq, 40)
	}
	b.StopTimer()
	pl.Close()
}
