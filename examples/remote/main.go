// Remote diagnosis: the paper's Figure-3 architecture end to end. The
// switch-side process runs the data plane and the analysis program and
// exposes the TCP query API plus an ops HTTP endpoint; a separate
// "operator" client connects, diagnoses a victim over the wire, and
// scrapes the switch's own health metrics — the asynchronous-query path a
// real deployment uses when a customer complains about latency.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"printqueue"
)

func main() {
	// --- switch side ---
	sw, err := printqueue.NewSwitch(printqueue.SwitchConfig{
		Ports: 1, LinkBps: 10e9, BufferCells: 60000,
	})
	if err != nil {
		log.Fatal(err)
	}
	pq, err := printqueue.New(printqueue.Config{
		TimeWindows: printqueue.TimeWindowConfig{
			M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelay: 1200 * time.Nanosecond,
		},
		QueueMonitor: printqueue.QueueMonitorConfig{MaxDepthCells: 65536, GranuleCells: 19},
		Ports:        []int{0},
	})
	if err != nil {
		log.Fatal(err)
	}
	pq.Attach(sw)
	tlog := sw.AttachLog(0)

	pkts, _, err := printqueue.Microburst(printqueue.MicroburstScenario{
		LinkBps: 10e9, Seed: 11, BurstStart: time.Millisecond, Duration: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pkts {
		sw.Inject(p)
	}
	sw.Flush()
	pq.Finalize(sw.Now() + 1)

	// ServeOpts bounds the listener: idle connections are reaped after two
	// minutes and at most 64 queries execute at once — beyond that the
	// server sheds load (an "overloaded" reply) instead of queueing.
	svc, err := pq.ServeOpts("127.0.0.1:0", 2, printqueue.ServeOptions{
		IdleTimeout: 2 * time.Minute,
		ShedLimit:   64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("switch: analysis program serving queries on %s\n", svc.Addr())

	ops, err := pq.ServeOps("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()
	fmt.Printf("switch: ops endpoint on http://%s (curl /metrics)\n", ops.Addr())

	// --- operator side (would normally be another machine) ---
	// The operator's client multiplexes: one TCP connection carries any
	// number of concurrent queries, and batches answer many questions with
	// one frame each way. The client rides out
	// transient network trouble on its own: failed round trips are retried
	// on a fresh connection with exponential backoff, and request/response
	// ids keep a late answer from one query from being mistaken for the
	// next one's.
	client, err := printqueue.DialQueriesMuxOpts(svc.Addr(), printqueue.DialOptions{
		Timeout:     5 * time.Second,
		MaxRetries:  3,
		BackoffBase: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The customer complaint names a time window; the operator asks what
	// occupied the port then.
	victims := tlog.Victims(2000, 1)
	if len(victims) == 0 {
		log.Fatal("no congestion")
	}
	v := tlog.Record(victims[0])
	fmt.Printf("operator: investigating a packet that waited %v\n\n",
		time.Duration(v.DeqTime-v.EnqTime))

	report, err := client.Interval(0, v.EnqTime, v.DeqTime)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("operator: direct culprits over the wire:")
	for i, c := range report {
		if i == 5 {
			break
		}
		fmt.Printf("  %-44v %10.1f\n", c.Flow, c.Packets)
	}
	// Follow-up questions go out as one batch: a single frame carries the
	// original-culprit query and a wider interval, and a single frame
	// brings both answers back.
	batch, err := client.Batch([]printqueue.BatchQuery{
		{Kind: "original", Port: 0, Queue: 0, At: v.EnqTime},
		{Kind: "interval", Port: 0, Start: v.EnqTime - 1000, End: v.DeqTime + 1000},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range batch {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	orig := batch[0].Report
	fmt.Printf("\noperator: %d original culprit flows via the queue monitor\n", len(orig))
	fmt.Printf("operator: %d flows near the incident (batched with the above)\n", len(batch[1].Report))

	p, r := printqueue.Accuracy(report, tlog.DirectTruth(victims[0]))
	fmt.Printf("\n(remote answers scored against local ground truth: precision %.2f, recall %.2f)\n", p, r)

	// Finally, the operator checks the measurement system itself: scrape
	// the switch's Prometheus metrics the way a monitoring stack would.
	resp, err := http.Get("http://" + ops.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\noperator: switch self-telemetry (/metrics excerpt):")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "printqueue_checkpoints_total") ||
			strings.HasPrefix(line, "printqueue_port_packets_total") ||
			strings.HasPrefix(line, "printqueue_query_latency_ns_count") {
			fmt.Printf("  %s\n", line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noperator: client health: timeouts=%d retries=%d reconnects=%d\n",
		client.Timeouts(), client.Retries(), client.Reconnects())
}
