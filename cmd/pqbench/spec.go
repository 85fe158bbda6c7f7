package main

import (
	"encoding/json"
	"fmt"
	"math"

	"printqueue/internal/trace"
)

// workload describes one benchmark workload. Every count is the size that
// runs at -scale 1 with -seconds 10 — well under the sizes ISSUE 11 names,
// so that the driver's 92 runs fit its time cap (see bench/README.md).
// Work is a fixed count, never a fixed time: -seconds and -scale multiply
// the rounds and operation counts, and count metrics repeat exactly.
type workload struct {
	Name string
	Why  string

	Preset      trace.Workload
	Hops        int    // switches; >1 is a switchsim.Chain
	Ports       int    // activated ports per switch
	PktsPerPort int    // trace length per port (per hop-0 port for a chain)
	PollNs      uint64 // checkpoint period; 0 = the time windows' set period
	Rounds      int    // replays of the recorded dequeue stream
	// RateStacks further stacks over the same inputs are each fed
	// rateStackRounds closed-loop rounds before the workload's own stack is,
	// for their ingest rate alone. Where a System's registers land in memory
	// puts ingest_small_pkts, for the System's whole life, in one of two
	// regimes a quarter apart in throughput; the mean over several Systems
	// is what a user gets on average, one System's rate is a coin toss
	// (bench/README.md, "Calibration").
	RateStacks int
	// TailRounds further rounds follow a closed-loop feed, paced at TailRate
	// packets per second, about a quarter of what the closed loop reaches on
	// the seed commit. Freshness is sampled there: under saturation
	// dequeue-to-queryable lag is the length of whatever queue happens to be
	// standing, which no two runs agree on.
	TailRounds int
	TailRate   float64

	// Open loop (live_switch): the feeder and the query issuer run to a
	// schedule instead of as fast as the program lets them.
	OpenLoop  bool
	FeedRate  float64 // packets per second
	QueryRate float64 // diagnoses per second

	// Reopen (history_fleet): ingest is set-up; every System is closed and
	// reopened on its history directory so each answer comes from the log.
	Reopen bool

	// Closed-loop diagnosis phases, two clients, fixed operation counts.
	Narrow int // one victim's queueing interval each, unique
	Wide   int // 20 ms windows
	Dash   int // repeated diagnoses cycling over dashIntervals intervals
}

// trafficSeed seeds the packet traces (port p uses trafficSeed+p). It is a
// constant, where ISSUE 11 had the run's seed: seed-dependent traces moved
// precision by 16 % and log bytes by 17 % from seed to seed, which no
// regression bound could see past. The run's seed draws the operations.
const trafficSeed = 1

const (
	feedBurst      = 256        // packets per open-loop burst
	wideWindowNs   = 20_000_000 // a wide diagnosis spans 20 ms of trace time
	dashIntervals  = 16
	victimMinCells = 1000 // a victim saw at least this queue depth at enqueue
	crossCheckEach = 50   // one narrow op in this many is re-asked directly
	topK           = 10
	setupReps      = 5 // set-ups per run; setup_s is their median
	// rateStackRounds: the first round or two of a stack pay for its cold
	// pages; the median of eight rounds does not.
	rateStackRounds = 8
	diagClients     = 2
)

var workloads = []workload{
	{
		Name: "ingest_small_pkts",
		Why: "closed loop, 2 ports of ~100 B packets, ~270k packets per checkpoint: per-packet work " +
			"(Insert, Observe, ring handoff) dominates, the checkpoint path is nearly idle",
		Preset: trace.UW, Hops: 1, Ports: 2, PktsPerPort: 400_000, Rounds: 60, RateStacks: 7, TailRounds: 16, TailRate: 3e6,
		Narrow: 1500, Wide: 120, Dash: 20_000,
	},
	{
		Name: "ingest_dense_checkpoints",
		Why: "closed loop, 8 ports of near-MTU packets, a checkpoint per ~800 packets: snapshot, encode, " +
			"append, publish and mirror ingest on the one snapshotter dominate, per-packet work does not",
		Preset: trace.WS, Hops: 1, Ports: 8, PktsPerPort: 50_000, PollNs: 1_000_000, Rounds: 10, TailRounds: 1, TailRate: 170e3,
		Narrow: 1500, Wide: 100, Dash: 20_000,
	},
	{
		Name: "live_switch",
		Why: "open loop, 1M pkts/s fed beside 20 three-query diagnoses/s on one System: the same layers " +
			"under contention, so freshness and query latency show what an ingest or query change costs the other",
		Preset: trace.UW, Hops: 1, Ports: 2, PktsPerPort: 400_000, PollNs: 1_000_000, Rounds: 18,
		OpenLoop: true, FeedRate: 1e6, QueryRate: 20,
		Narrow: 600, Wide: 100, Dash: 20_000,
	},
	{
		Name: "history_fleet",
		Why: "closed loop, read-only, 3-hop chain reopened on its logs: unique victims miss the decode " +
			"cache, repeated ones hit the memo; ingest layers idle, coverage search, decode and fold dominate",
		Preset: trace.UW, Hops: 3, Ports: 1, PktsPerPort: 400_000, PollNs: 1_000_000, Rounds: 3, TailRounds: 1, TailRate: 1e6,
		Reopen: true,
		Narrow: 1650, Wide: 66, Dash: 66_000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled multiplies the rounds and operation counts by f, keeping each
// large enough that the run still exercises every phase.
func (w workload) scaled(f float64) workload {
	mul := func(n, min int) int {
		if n == 0 {
			return 0
		}
		v := int(math.Round(float64(n) * f))
		if v < min {
			v = min
		}
		return v
	}
	w.Rounds = mul(w.Rounds, 1)
	w.TailRounds = mul(w.TailRounds, 1)
	w.Narrow = mul(w.Narrow, 20)
	w.Wide = mul(w.Wide, 4)
	w.Dash = mul(w.Dash, 4*dashIntervals)
	return w
}

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same tables; TestBenchmarkJSONMatchesSpec holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median it may worsen by (end to end only)
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them. The log size and the accuracy ratios are exact
// for the traffic, the same on every run and every seed: the log may not
// grow at all, the ratios may lose 0.5 % (of a value below 1, so less than
// ISSUE 11's 0.005 absolute). A timing's bound is at least the spread it
// showed over ten seeds on the seed commit, on its worst workload, and at
// most the contract's 0.25 (bench/README.md, "Calibration").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_pkts_per_s", "pkts/s", "higher", 0.25},
	{"ingest_pkts_per_cpu_s", "pkts/CPU-s", "higher", 0.25},
	{"log_bytes_per_checkpoint", "B", "lower", 0},
	{"fresh_p50_ms", "ms", "lower", 0.25},
	{"diag_narrow_p50_us", "us", "lower", 0.25},
	{"diag_precision", "ratio", "higher", 0.005},
	{"diag_recall", "ratio", "higher", 0.005},
}

// perLayer are the single-layer metrics of the traced run, in the order
// bench/README.md explains them.
var perLayer = []metricDef{
	// Set-up layers.
	{"trace.generate_ns_per_pkt", "ns", "lower", 0},
	{"switchsim.inject_ns_per_pkt", "ns", "lower", 0},
	{"switchsim.chain_ns_per_pkt", "ns", "lower", 0},
	// Ingest ladder.
	{"gen.feed_ns_per_pkt", "ns", "lower", 0},
	{"timewindow.insert_ns_per_pkt", "ns", "lower", 0},
	{"qmonitor.observe_ns_per_pkt", "ns", "lower", 0},
	{"control.ingest.ondequeue_ns_per_pkt", "ns", "lower", 0},
	{"control.ingest.pipeline_ns_per_pkt", "ns", "lower", 0},
	{"control.ingest.backpressure_ns_per_pkt", "ns", "lower", 0},
	{"control.ingest.batches", "count", "lower", 0},
	{"ladder.per_packet_share", "ratio", "higher", 0},
	{"ladder.per_checkpoint_share", "ratio", "higher", 0},
	// Checkpoint path.
	{"timewindow.snapshot_us", "us", "lower", 0},
	{"qmonitor.snapshot_us", "us", "lower", 0},
	{"control.checkpoint.flip_us", "us", "lower", 0},
	{"histstore.encode_us", "us", "lower", 0},
	{"histstore.append_us", "us", "lower", 0},
	{"histstore.encoded_bytes", "B", "lower", 0},
	{"control.stream.publish_us", "us", "lower", 0},
	{"fleet.mirror_ingest_us", "us", "lower", 0},
	{"control.checkpoint.count", "count", "lower", 0},
	{"control.checkpoint.infeasible_flips", "count", "lower", 0},
	{"control.stream.frames", "count", "lower", 0},
	{"control.stream.resyncs", "count", "lower", 0},
	{"fleet.stream_bytes", "B", "lower", 0},
	// Freshness breakdown and generator validity.
	{"fresh.switch_p50_ms", "ms", "lower", 0},
	{"fresh.streamed_p50_ms", "ms", "lower", 0},
	{"fresh.collector_p90_ms", "ms", "lower", 0},
	{"fresh.collector_p99_ms", "ms", "lower", 0},
	{"fresh.closed_loop_p50_ms", "ms", "lower", 0},
	{"gen.feed_late_p99_us", "us", "lower", 0},
	{"gen.query_late_p99_us", "us", "lower", 0},
	{"diag.narrow_p99_us", "us", "lower", 0},
	{"diag.per_s", "ops/s", "higher", 0},
	{"diag.wide_p50_ms", "ms", "lower", 0},
	{"diag.dash_p50_us", "us", "lower", 0},
	// Query ladder.
	{"control.query.interval_hot_us", "us", "lower", 0},
	{"control.query.interval_cold_us", "us", "lower", 0},
	{"control.query.original_us", "us", "lower", 0},
	{"control.query.cells_per_query", "count", "lower", 0},
	{"control.query.checkpoints_scanned_per_query", "count", "lower", 0},
	{"control.query.server_us", "us", "lower", 0},
	{"control.wire.mux_interval_us", "us", "lower", 0},
	{"control.wire.mux_batch3_us", "us", "lower", 0},
	{"control.wire.mux_batch16_us_per_query", "us", "lower", 0},
	{"histstore.decode_us", "us", "lower", 0},
	{"timewindow.filter_build_us", "us", "lower", 0},
	{"histstore.cache_hit_share", "ratio", "higher", 0},
	{"timewindow.accumulate_us_per_checkpoint", "us", "lower", 0},
	{"flow.key_string_ns", "ns", "lower", 0},
	{"flow.parse_key_ns", "ns", "lower", 0},
	{"flow.topk_us", "us", "lower", 0},
	{"fleet.query_path_fanout_us", "us", "lower", 0},
	{"fleet.query_path_mirror_us", "us", "lower", 0},
	{"fleet.query_path_memo_us", "us", "lower", 0},
	{"fleet.diagnose_overhead_us", "us", "lower", 0},
	{"fleet.memo_hit_share", "ratio", "higher", 0},
	{"fleet.mirror_served_share", "ratio", "higher", 0},
	{"fleet.fallbacks", "count", "lower", 0},
	// Recovery.
	{"histstore.reopen_ms", "ms", "lower", 0},
	{"histstore.replay_records_per_s", "1/s", "higher", 0},
	{"fleet.mirror_warm_s", "s", "lower", 0},
	// Process.
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.alloc_bytes_per_pkt", "B", "lower", 0},
	{"proc.allocs_per_diag", "count", "lower", 0},
	{"proc.gc_cpu_share", "ratio", "lower", 0},
	// The program's own tracer, traced run only.
	{"trace.client_encode_us", "us", "lower", 0},
	{"trace.client_await_us", "us", "lower", 0},
	{"trace.server_queue_us", "us", "lower", 0},
	{"trace.server_execute_us", "us", "lower", 0},
	{"trace.server_accumulate_us", "us", "lower", 0},
	{"trace.server_write_us", "us", "lower", 0},
	{"trace.fleet_query_us", "us", "lower", 0},
	{"tracing.overhead_pct", "%", "lower", 0},
}

// headline is the end-to-end metric tracing.overhead_pct compares between
// the untraced and the traced run of each workload.
func (w workload) headline() string {
	switch {
	case w.OpenLoop:
		return "fresh_p50_ms"
	case w.Reopen:
		return "diag_narrow_p50_us"
	default:
		return "ingest_pkts_per_s"
	}
}

// benchmarkJSON renders the repository's BENCHMARK.json from the tables
// above: the driver's contract, and nothing it does not ask for.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"cmd/pqbench", "bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(b, '\n')
}
