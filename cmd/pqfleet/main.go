// Command pqfleet is the fleet-level diagnosis client: the paper's
// higher-layer application that queries every switch on a packet's path
// and correlates the answers into a per-hop culprit report.
//
// Usage:
//
//	pqfleet -hop s1=127.0.0.1:7171 -hop s2=127.0.0.1:7172 -hop s3=127.0.0.1:7173 \
//	        -port 0 -start 1000000 -end 2000000 -victim pkt-42 -topk 5
//	pqfleet -demo
//
// Hops are listed in path order; each -hop is "id=addr". The collector
// fans the interval query out to every hop concurrently, keeps
// partial-result semantics (a dead hop is reported in place, the others
// still answer), and ranks each hop's top-k culprit flows.
//
// -demo runs an in-process 3-hop simulated chain with cross-traffic at
// the middle hop, serves each hop's System over loopback, and prints the
// resulting path diagnosis plus its precision/recall against the per-hop
// ground truth.
//
// -mirror turns on checkpoint streaming: the collector subscribes to every
// hop's checkpoint stream and keeps a local histstore replica per switch
// (under -mirror-dir), so covered intervals are answered at local speed
// with no per-query round trip. A switch streams from its segment log, so
// it must keep one (pqsim -hist-dir); the hops of one that does not go over
// the network. Answers that extend past a replica's coverage are served
// only within -mirror-staleness nanoseconds of lag and are explicitly
// annotated "[mirror, stale +Nns]" in the report; with the strict default
// (0) they fall back to the network fan-out. A hop whose switch is
// unreachable is still answered from its replica, always annotated stale.
// Combined with -demo, the demo chain runs with durable per-hop histories
// and prints the same diagnosis both over the network and from the warmed
// mirrors.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/experiments"
	"printqueue/internal/fleet"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

// hopFlags accumulates repeated -hop id=addr flags in path order.
type hopFlags []fleet.SwitchInfo

func (h *hopFlags) String() string { return fmt.Sprint(*h) }

func (h *hopFlags) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok || id == "" || addr == "" {
		return fmt.Errorf("want id=addr, got %q", v)
	}
	*h = append(*h, fleet.SwitchInfo{ID: id, Hop: len(*h), Addr: addr})
	return nil
}

func main() {
	log.SetFlags(0)
	var hops hopFlags
	flag.Var(&hops, "hop", "one path hop as id=addr; repeat in path order")
	port := flag.Int("port", 0, "egress port to query at every hop")
	start := flag.Uint64("start", 0, "interval start, ns")
	end := flag.Uint64("end", 0, "interval end, ns (exclusive)")
	topk := flag.Int("topk", 5, "culprit flows to rank per hop")
	victim := flag.String("victim", "victim", "label for the diagnosed packet/flow")
	timeout := flag.Duration("timeout", 2*time.Second, "per-hop query deadline")
	workers := flag.Int("workers", fleet.DefaultWorkers, "max concurrent hop queries")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "per-round-trip I/O deadline")
	demo := flag.Bool("demo", false, "run the in-process 3-hop chain demo instead of dialing real switches")
	mirror := flag.Bool("mirror", false, "subscribe to every hop's checkpoint stream and answer covered intervals from local replicas")
	mirrorDir := flag.String("mirror-dir", "", "root directory for the per-switch replica stores (default: a fresh temp dir)")
	mirrorStaleness := flag.Uint64("mirror-staleness", 0, "max ns a query may reach past a replica's coverage and still be served locally, annotated stale; 0 = strict")
	flag.Parse()

	if *mirror && *mirrorDir == "" {
		dir, err := os.MkdirTemp("", "pqfleet-mirror-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		*mirrorDir = dir
	}
	if *demo {
		if err := runDemo(*topk, *mirror, *mirrorDir, *mirrorStaleness); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(hops) == 0 {
		log.Fatal("usage: pqfleet -hop id=addr [-hop id=addr ...] -port 0 -start S -end E, or pqfleet -demo")
	}
	if *end <= *start {
		log.Fatalf("empty interval [%d, %d)", *start, *end)
	}
	c := fleet.New(fleet.Options{
		Workers:           *workers,
		HopTimeout:        *timeout,
		Dial:              control.DialOptions{Timeout: *dialTimeout},
		Mirror:            *mirror,
		MirrorDir:         *mirrorDir,
		MirrorStalenessNs: *mirrorStaleness,
	})
	defer c.Close()
	refs := make([]fleet.HopRef, 0, len(hops))
	for _, info := range hops {
		if err := c.Register(info); err != nil {
			log.Fatal(err)
		}
		refs = append(refs, fleet.HopRef{SwitchID: info.ID, Port: *port})
	}
	d, err := c.Diagnose(*victim, refs, *start, *end, *topk)
	if err != nil {
		log.Fatal(err)
	}
	printDiagnosis(d)
}

func printDiagnosis(d *fleet.PathDiagnosis) {
	fmt.Printf("victim %s, interval [%d, %d), %d hops, %v", d.Victim, d.Start, d.End, len(d.Hops), d.Elapsed.Round(time.Microsecond))
	if d.Partial {
		fmt.Printf("  PARTIAL (failed: %s)", strings.Join(d.FailedHops(), ", "))
	}
	fmt.Println()
	for _, hd := range d.Hops {
		src := ""
		if hd.Mirrored {
			src = "  [mirror"
			if hd.Stale {
				src += fmt.Sprintf(", stale +%dns", hd.LagNs)
			}
			src += "]"
		}
		fmt.Printf("hop %d  %-8s port %d  %v%s\n", hd.Hop, hd.SwitchID, hd.Port, hd.Latency.Round(time.Microsecond), src)
		if hd.Err != nil {
			fmt.Printf("    ERROR: %v\n", hd.Err)
			continue
		}
		if len(hd.Culprits) == 0 {
			fmt.Println("    (no traffic in interval)")
			continue
		}
		for i, cu := range hd.Culprits {
			fmt.Printf("    #%d %-40s %10.1f\n", i+1, cu.Flow, cu.Count)
		}
	}
}

// runDemo stages the cross-switch scenario end to end in one process:
// a 3-hop chain, heavy path traffic, cross-traffic entering at hop 1,
// each hop served over loopback, one fleet diagnosis over the result.
// With mirror set, every hop additionally keeps a durable checkpoint
// history, a second mirror-mode collector warms its replicas from the
// checkpoint streams, and the same diagnosis is printed again as answered
// from the mirrors.
func runDemo(topk int, mirror bool, mirrorDir string, staleness uint64) error {
	var path, cross []pktrec.Packet
	var ts uint64
	for i := 0; i < 250; i++ {
		ts += 500
		f := demoKey(2)
		if i%5 == 0 {
			f = demoKey(1)
		}
		path = append(path, pktrec.Packet{Flow: f, Bytes: 800, Arrival: ts, Port: 0})
	}
	ts = 2000
	for i := 0; i < 150; i++ {
		ts += 600
		cross = append(cross, pktrec.Packet{Flow: demoKey(9), Bytes: 800, Arrival: ts, Port: 0})
	}
	chainCfg := experiments.ChainRunConfig{
		Hops:        3,
		LinkBps:     []uint64{1e9},
		LinkDelayNs: 1000,
		TW:          timewindow.Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10},
		QM:          qmonitor.Config{MaxDepthCells: 4096, GranuleCells: 4},
	}
	if mirror {
		histDir, err := os.MkdirTemp("", "pqfleet-demo-hist-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(histDir)
		chainCfg.HistDir = histDir
	}
	run, err := experiments.ExecuteChain(path, [][]pktrec.Packet{1: cross}, chainCfg)
	if err != nil {
		return err
	}
	defer run.Close()
	c := fleet.New(fleet.Options{})
	defer c.Close()
	var mc *fleet.Collector
	if mirror {
		mc = fleet.New(fleet.Options{Mirror: true, MirrorDir: mirrorDir, MirrorStalenessNs: staleness})
		defer mc.Close()
	}
	refs := make([]fleet.HopRef, len(run.Sys))
	// minFreeze is the largest interval end every hop's mirror covers with
	// zero lag: the smallest finalize freeze across hops.
	minFreeze := ^uint64(0)
	for k, sys := range run.Sys {
		qs := control.NewQueryServer(sys)
		qs.Start(2)
		defer qs.Stop()
		srv, err := control.ServeQueries("127.0.0.1:0", qs)
		if err != nil {
			return err
		}
		defer srv.Close()
		id := fmt.Sprintf("sw%d", k)
		info := fleet.SwitchInfo{ID: id, Hop: k, Addr: srv.Addr().String()}
		if err := c.Register(info); err != nil {
			return err
		}
		if mc != nil {
			if err := mc.Register(info); err != nil {
				return err
			}
		}
		refs[k] = fleet.HopRef{SwitchID: id, Port: 0}
		if f := run.Chain.Switch(k).Port(0).Now() + 1; f < minFreeze {
			minFreeze = f
		}
	}
	d, err := c.Diagnose("demo-victim", refs, 0, minFreeze, topk)
	if err != nil {
		return err
	}
	fmt.Println("3-hop chain, cross-traffic at hop 1 (flow 10.0.0.9):")
	printDiagnosis(d)
	fmt.Println("\nattribution vs per-hop ground truth:")
	for _, s := range experiments.ScoreChainAttribution(run, d, topk) {
		fmt.Printf("hop %d: precision %.2f recall %.2f (reported %d, truth %d)\n",
			s.Hop, s.Precision, s.Recall, s.Reported, s.Truth)
	}
	if mc == nil {
		return nil
	}
	// Wait for the replicas to finish their catch-up replay, observable as
	// every hop answering Mirrored.
	deadline := time.Now().Add(15 * time.Second)
	for {
		results := mc.QueryPath(refs, 0, minFreeze)
		warm := true
		for _, res := range results {
			if res.Err != nil || !res.Mirrored {
				warm = false
				break
			}
		}
		if warm {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pqfleet: mirrors never warmed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	md, err := mc.Diagnose("demo-victim", refs, 0, minFreeze, topk)
	if err != nil {
		return err
	}
	fmt.Println("\nsame diagnosis from the warmed mirrors (no per-hop round trips):")
	printDiagnosis(md)
	return nil
}

func demoKey(n byte) flow.Key {
	return flow.Key{SrcIP: [4]byte{10, 0, 0, n}, DstIP: [4]byte{10, 0, 1, 1}, SrcPort: 5, DstPort: 80, Proto: flow.ProtoTCP}
}
