// Command pqsim runs PrintQueue over a workload on the simulated switch and
// prints culprit diagnoses for the worst victims.
//
// Usage:
//
//	pqsim -workload UW -packets 500000 -top 10 -victims 3
//	pqsim -scenario casestudy -scale 0.2
//	pqsim -scenario microburst
//	pqsim -workload WS -dp-trigger 5000        # arm data-plane queries
//	pqsim -trace trace.bin                     # replay a pqtrace file
//	pqsim -save-log run.pqgt                   # dump the telemetry log
//	pqsim -serve 127.0.0.1:7171                # host the TCP query API
//	                                           # (diagnose with cmd/pqquery)
//	pqsim -ops 127.0.0.1:9090                  # ops endpoint: curl /metrics
//	pqsim -hist-dir hist -max-checkpoints 32   # durable tiered history:
//	                                           # RAM holds 32 checkpoints,
//	                                           # the rest queried from disk
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"printqueue"
	"printqueue/internal/pktrec"
	"printqueue/internal/trace"
)

var (
	workload  = flag.String("workload", "UW", "workload: UW, WS or DM")
	scenario  = flag.String("scenario", "", "instead of a workload: microburst, incast or casestudy")
	tracePath = flag.String("trace", "", "instead of a workload: replay a binary trace file written by pqtrace")
	packets   = flag.Int("packets", 500000, "trace length in packets")
	seed      = flag.Uint64("seed", 1, "generator seed")
	linkBps   = flag.Float64("link", 10e9, "egress line rate (bits/sec)")
	buffer    = flag.Int("buffer", 40000, "port buffer in 80-byte cells")
	top       = flag.Int("top", 10, "culprit flows to print per victim")
	nVictims  = flag.Int("victims", 3, "victims to diagnose")
	dpTrigger = flag.Int("dp-trigger", 0, "arm data-plane queries at this queue depth (cells); 0 = off")
	scale     = flag.Float64("scale", 0.2, "case-study time scale")
	origFlag  = flag.Bool("original", true, "also query original culprits (queue monitor)")
	saveLog   = flag.String("save-log", "", "write the telemetry (ground-truth) log to this file")
	serveAddr = flag.String("serve", "", "after the run, host the TCP query API on this address until interrupted")
	opsAddr   = flag.String("ops", "", "host the ops HTTP endpoint (Prometheus /metrics, /healthz, /debug/*) on this address for the whole run")
	slowN     = flag.Int("slow-traces", 0, "trace every query and dump the slowest N as span trees at exit; 0 = off")

	histDir   = flag.String("hist-dir", "", "enable the tiered checkpoint history: append retired checkpoints to a durable segment log in this directory")
	histCache = flag.Int64("hist-cache", 0, "cold-tier decoded-checkpoint LRU budget in bytes (0 = default 64 MiB)")
	histMaxB  = flag.Int64("hist-max-bytes", 0, "history disk budget in bytes; oldest sealed segments pruned while over (0 = unlimited)")
	histFsync = flag.Int("hist-fsync", 0, "fsync the history log every N checkpoints (0 = only on segment rotation/close)")
	maxCps    = flag.Int("max-checkpoints", 0, "bound the in-RAM checkpoint history per port; older checkpoints fall to the cold tier (0 = unlimited)")
)

func main() {
	log.SetFlags(0)
	flag.Parse()

	pkts, cfg, err := buildWorkload()
	if err != nil {
		log.Fatal(err)
	}
	sw, err := printqueue.NewSwitch(printqueue.SwitchConfig{
		Ports: 1, LinkBps: uint64(*linkBps), BufferCells: *buffer,
	})
	if err != nil {
		log.Fatal(err)
	}
	pq, err := printqueue.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pq.Attach(sw)
	tlog := sw.AttachLog(0)

	if *slowN > 0 {
		// Trace every query so the slowest-N dump sees the full population;
		// the ring is sized to hold them all.
		pq.EnableTracing(printqueue.TracingConfig{SampleEvery: 1, RingSize: 4096})
		defer dumpSlowTraces(pq, *slowN)
	}

	if *opsAddr != "" {
		ops, err := pq.ServeOps(*opsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		fmt.Printf("ops endpoint on http://%s (try /metrics, /debug/pipeline)\n", ops.Addr())
	}

	for _, p := range pkts {
		sw.Inject(p)
	}
	sw.Flush()
	pq.Finalize(sw.Now() + 1)

	st := sw.Stats(0)
	fmt.Printf("replayed %d packets: %d dequeued, %d dropped, max depth %d cells\n",
		st.Enqueued+st.Dropped, st.Dequeued, st.Dropped, st.MaxDepthCells)
	fmt.Printf("control plane: %d checkpoints, %d special freezes, %d data-plane queries\n\n",
		pq.Stats().Checkpoints, pq.Stats().SpecialFreezes, len(pq.DataPlaneQueries(0)))

	if hs, ok := pq.HistoryStats(); ok {
		defer pq.Close()
		fmt.Printf("history log: %d checkpoints in %d segments, %d bytes on disk (%.1fx smaller than in-memory), %d append errors\n\n",
			hs.Appended, hs.Segments, hs.BytesOnDisk, hs.CompressionRatio(), hs.AppendErrors)
	}

	if *saveLog != "" {
		f, err := os.Create(*saveLog)
		if err != nil {
			log.Fatal(err)
		}
		if err := tlog.WriteLog(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry log (%d records) written to %s\n\n", tlog.Len(), *saveLog)
	}

	victims := tlog.Victims(1000, 0)
	if len(victims) == 0 {
		fmt.Println("no packet ever saw >= 1000 cells of queue; nothing to diagnose")
		serve(pq)
		return
	}
	// Diagnose the deepest victims.
	sort.Slice(victims, func(i, j int) bool {
		return tlog.Record(victims[i]).DepthCells > tlog.Record(victims[j]).DepthCells
	})
	if len(victims) > *nVictims {
		victims = victims[:*nVictims]
	}
	for _, vi := range victims {
		diagnose(pq, tlog, vi)
	}
	serve(pq)
}

// dumpSlowTraces prints the slowest n completed traces as span trees,
// slowest first.
func dumpSlowTraces(pq *printqueue.System, n int) {
	traces := pq.Traces()
	sort.Slice(traces, func(i, j int) bool { return traces[i].DurNs() > traces[j].DurNs() })
	if len(traces) > n {
		traces = traces[:n]
	}
	if len(traces) == 0 {
		fmt.Println("no traces recorded")
		return
	}
	fmt.Printf("slowest %d of %d traced queries:\n", len(traces), pq.Tracer().Finished())
	for _, tr := range traces {
		fmt.Print(printqueue.FormatTrace(tr))
	}
}

// serve optionally hosts the TCP query API until interrupted.
func serve(pq *printqueue.System) {
	if *serveAddr == "" {
		return
	}
	svc, err := pq.Serve(*serveAddr, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("serving queries on %s (ask with pqquery; ctrl-c to exit)\n", svc.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func diagnose(pq *printqueue.System, tlog *printqueue.PacketLog, vi int) {
	v := tlog.Record(vi)
	fmt.Printf("victim %v\n", v.Flow)
	fmt.Printf("  queued %v at depth %d cells\n", time.Duration(v.DeqTime-v.EnqTime), v.DepthCells)
	regime := uint64(0)
	if *origFlag {
		regime = tlog.RegimeStart(vi)
	}
	diag, err := pq.Diagnose(0, 0, v.EnqTime, v.DeqTime, regime)
	if err != nil {
		log.Fatal(err)
	}
	p, r := printqueue.Accuracy(diag.Direct, tlog.DirectTruth(vi))
	fmt.Printf("  direct-culprit accuracy vs ground truth: precision %.2f recall %.2f\n", p, r)
	for _, line := range strings.Split(diag.Summary(*top), "\n") {
		if line != "" {
			fmt.Printf("  %s\n", line)
		}
	}
	fmt.Println()
}

func buildWorkload() ([]printqueue.Packet, printqueue.Config, error) {
	cfgSmall := printqueue.DefaultConfig(0) // UW-style: m0=6, alpha=2
	cfgMTU := printqueue.Config{
		TimeWindows: printqueue.TimeWindowConfig{
			M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelay: 1200 * time.Nanosecond,
		},
		QueueMonitor: printqueue.QueueMonitorConfig{MaxDepthCells: 131072, GranuleCells: 19},
		Ports:        []int{0},
	}
	arm := func(c printqueue.Config) printqueue.Config {
		if *dpTrigger > 0 {
			c.DPTriggerDepthCells = *dpTrigger
			c.ReadRateEntriesPerSec = 50e6
		}
		c.MaxCheckpoints = *maxCps
		if *histDir != "" {
			c.History = &printqueue.HistoryConfig{
				Dir:        *histDir,
				CacheBytes: *histCache,
				MaxBytes:   *histMaxB,
				FsyncEvery: *histFsync,
			}
		}
		return c
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return nil, printqueue.Config{}, err
		}
		defer f.Close()
		recs, err := trace.ReadFile(f)
		if err != nil {
			return nil, printqueue.Config{}, err
		}
		pkts := make([]printqueue.Packet, len(recs))
		small := true
		for i, rec := range recs {
			pkts[i] = packetFromRec(rec)
			if rec.Bytes > 512 {
				small = false
			}
		}
		if small {
			return pkts, arm(cfgSmall), nil
		}
		return pkts, arm(cfgMTU), nil
	}

	switch *scenario {
	case "":
	case "microburst":
		pkts, _, err := printqueue.Microburst(printqueue.MicroburstScenario{
			LinkBps: uint64(*linkBps), Seed: *seed,
			BurstStart: 2 * time.Millisecond, Duration: 8 * time.Millisecond,
		})
		return pkts, arm(cfgMTU), err
	case "incast":
		pkts, _, _, err := printqueue.Incast(printqueue.IncastScenario{
			LinkBps: uint64(*linkBps), Seed: *seed,
			Senders: 32, Start: 2 * time.Millisecond, Duration: 10 * time.Millisecond,
		})
		return pkts, arm(cfgMTU), err
	case "casestudy":
		pkts, _, err := printqueue.CaseStudy(*scale)
		c := cfgMTU
		c.QueueMonitor.GranuleCells = 4
		return pkts, arm(c), err
	default:
		return nil, printqueue.Config{}, fmt.Errorf("unknown scenario %q", *scenario)
	}

	var w printqueue.Workload
	switch *workload {
	case "UW":
		w = printqueue.WorkloadUW
	case "WS":
		w = printqueue.WorkloadWS
	case "DM":
		w = printqueue.WorkloadDM
	default:
		return nil, printqueue.Config{}, fmt.Errorf("unknown workload %q", *workload)
	}
	pkts, err := printqueue.GenerateTrace(printqueue.TraceConfig{
		Workload: w, Seed: *seed, LinkBps: uint64(*linkBps),
		Packets: *packets, Episodic: true,
	})
	cfg := cfgSmall
	if w != printqueue.WorkloadUW {
		cfg = cfgMTU
	}
	return pkts, arm(cfg), err
}

func packetFromRec(p *pktrec.Packet) printqueue.Packet {
	return printqueue.Packet{
		Flow: printqueue.FlowID{
			SrcIP: p.Flow.SrcIP, DstIP: p.Flow.DstIP,
			SrcPort: p.Flow.SrcPort, DstPort: p.Flow.DstPort, Proto: uint8(p.Flow.Proto),
		},
		Bytes:   p.Bytes,
		Arrival: p.Arrival,
		Port:    p.Port,
		Queue:   p.Queue,
	}
}
