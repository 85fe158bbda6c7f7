// Command pqquery is a client for the PrintQueue TCP query API (hosted by
// `pqsim -serve` or any program calling System.Serve): the remote
// asynchronous-query path of the paper's Figure 3.
//
// Usage:
//
//	pqquery -addr 127.0.0.1:7171 interval -port 0 -start 1000000 -end 2000000
//	pqquery -addr 127.0.0.1:7171 original -port 0 -queue 0 -at 1500000
//	pqquery -addr 127.0.0.1:7171 -batch < queries.txt
//	pqquery -repeat 3 interval -port 0 -start 0 -end 1000   # cold-vs-warm latency
//
// With -batch, query lines are read from stdin — one query per line in the
// same syntax as the command line ("interval -port 0 -start 5 -end 9" or
// "original -port 0 -queue 0 -at 7") — and all of them are sent to the
// server in a single frame and answered in a single frame.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"printqueue"
)

const usage = "usage: pqquery [-addr host:port] [-timeout 5s] [-retries 2] [-repeat 1] [-trace] interval|original [flags], or -batch < queries"

// options is the parsed command line.
type options struct {
	addr    string
	top     int
	timeout time.Duration
	retries int
	batch   bool
	trace   bool
	repeat  int
	query   printqueue.BatchQuery // the single-shot query; unset with -batch
}

// parseArgs parses and checks the command line, before anything is dialled.
// What is wrong with it is written to out (the flag package's own messages
// and, for -h, the flag list go there too) and returned.
func parseArgs(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("pqquery", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7171", "query service address")
	fs.IntVar(&o.top, "top", 20, "flows to print")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-round-trip I/O deadline")
	fs.IntVar(&o.retries, "retries", 2, "retries after a retryable failure (-1 to disable)")
	fs.BoolVar(&o.batch, "batch", false, "read one query per line from stdin, send as one frame")
	fs.BoolVar(&o.trace, "trace", false, "trace every query end to end and print the joined client+server span tree")
	fs.IntVar(&o.repeat, "repeat", 1, "run the query N times, printing per-attempt latency (shows the server's cold-tier decode cost amortizing into its LRU)")
	if err := fs.Parse(args); err != nil {
		return o, err // already written to out by the flag package
	}
	err := o.check(fs.Args())
	if err != nil {
		fmt.Fprintf(out, "%v\n%s\n", err, usage)
	}
	return o, err
}

// check validates the parsed flags and, unless -batch will read queries from
// stdin, parses the query that follows them.
func (o *options) check(rest []string) (err error) {
	if o.repeat < 1 {
		return fmt.Errorf("-repeat %d: want at least 1", o.repeat)
	}
	if o.batch {
		return nil
	}
	if len(rest) < 1 {
		return errors.New("no query given")
	}
	o.query, err = parseQuery(rest[0], rest[1:])
	return err
}

func main() {
	log.SetFlags(0)
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if o.retries == 0 {
		o.retries = -1 // flag 0 means "no retries"; the option's 0 means default
	}
	opts := printqueue.DialOptions{Timeout: o.timeout, MaxRetries: o.retries}
	var tracer *printqueue.Tracer
	if o.trace {
		tracer = printqueue.NewTracer(1, 0) // sample every query
		opts.Tracer = tracer
	}
	client, err := printqueue.DialQueriesMuxOpts(o.addr, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if o.batch {
		code := runBatch(client, os.Stdin, o.top)
		client.Close()
		printTraces(tracer)
		os.Exit(code)
	}

	var report printqueue.Report
	for i := 0; i < o.repeat; i++ {
		t0 := time.Now()
		if o.query.Kind == "interval" {
			report, err = client.Interval(o.query.Port, o.query.Start, o.query.End)
		} else {
			report, err = client.Original(o.query.Port, o.query.Queue, o.query.At)
		}
		if err != nil {
			printTraces(tracer)
			log.Fatal(err)
		}
		if o.repeat > 1 {
			fmt.Printf("attempt %d: %v\n", i+1, time.Since(t0).Round(time.Microsecond))
		}
	}
	printReport(report, o.top)
	printTraces(tracer)
}

// printTraces dumps every trace the client tracer completed, newest last,
// as indented span trees joining the client and server sides.
func printTraces(tracer *printqueue.Tracer) {
	if tracer == nil {
		return
	}
	traces := tracer.Traces()
	for i := len(traces) - 1; i >= 0; i-- {
		fmt.Print(printqueue.FormatTrace(traces[i]))
	}
}

// parseQuery turns "interval -port 0 -start 5 -end 9" style arguments into
// a BatchQuery, shared by the single-shot and -batch paths.
func parseQuery(kind string, args []string) (printqueue.BatchQuery, error) {
	switch kind {
	case "interval":
		fs := flag.NewFlagSet("interval", flag.ContinueOnError)
		fs.SetOutput(io.Discard) // the caller reports the error
		port := fs.Int("port", 0, "egress port")
		start := fs.Uint64("start", 0, "interval start (ns)")
		end := fs.Uint64("end", 0, "interval end (ns)")
		if err := fs.Parse(args); err != nil {
			return printqueue.BatchQuery{}, err
		}
		return printqueue.BatchQuery{Kind: "interval", Port: *port, Start: *start, End: *end}, nil
	case "original":
		fs := flag.NewFlagSet("original", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		port := fs.Int("port", 0, "egress port")
		queue := fs.Int("queue", 0, "priority queue")
		at := fs.Uint64("at", 0, "query instant (ns)")
		if err := fs.Parse(args); err != nil {
			return printqueue.BatchQuery{}, err
		}
		return printqueue.BatchQuery{Kind: "original", Port: *port, Queue: *queue, At: *at}, nil
	default:
		return printqueue.BatchQuery{}, fmt.Errorf("unknown query kind %q (want interval or original)", kind)
	}
}

// runBatch reads one query per line, sends them as a single frame, and
// prints each answer labelled by its line. It returns the process exit
// code so main can flush traces before exiting.
func runBatch(mux *printqueue.MuxQueryClient, in *os.File, top int) int {
	var queries []printqueue.BatchQuery
	var lines []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		q, err := parseQuery(fields[0], fields[1:])
		if err != nil {
			log.Fatalf("query %d (%q): %v", len(queries)+1, line, err)
		}
		queries = append(queries, q)
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(queries) == 0 {
		log.Fatal("no queries on stdin")
	}
	results, err := mux.Batch(queries)
	if err != nil {
		log.Fatal(err)
	}
	exit := 0
	for i, r := range results {
		fmt.Printf("[%d] %s\n", i+1, lines[i])
		if r.Err != nil {
			fmt.Printf("  error: %v\n", r.Err)
			exit = 1
			continue
		}
		printReport(r.Report, top)
	}
	return exit
}

func printReport(report printqueue.Report, top int) {
	if len(report) == 0 {
		fmt.Println("no culprits")
		return
	}
	fmt.Printf("%d culprit flows, %.1f packets total:\n", len(report), report.Total())
	for i, c := range report {
		if i == top {
			break
		}
		fmt.Printf("  %-44v %10.1f\n", c.Flow, c.Packets)
	}
}
