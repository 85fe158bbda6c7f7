// Command pqbench is the repository's benchmark: one harness, four
// workloads, end-to-end and per-layer metrics for the path a diagnosis
// takes — packet dequeued → checkpoint retired → appended → streamed →
// mirrored → QueryPath answered → Diagnose ranked.
//
//	pqbench -workload <name> -seed <n> [-seconds s] [-scale f] [-trace 0|1] [-out file]
//	pqbench -calibrate N [-out baseline.json]
//	pqbench -compare a.json b.json
//
// It prints every metric by name with its unit, checks that answers are
// correct, counts attempted and failed operations, and exits non-zero on a
// failed check. bench/README.md explains the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// nominalSeconds is the measured time the workload sizes in spec.go aim
// for at -scale 1; -seconds scales the fixed work counts in proportion.
const nominalSeconds = 10

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Uint64("seed", 1, "seed the operations are drawn from: the order of the victims, the windows, the live issuer's picks")
		seconds   = flag.Float64("seconds", nominalSeconds, "aimed-for measured time; scales the fixed work counts")
		scale     = flag.Float64("scale", 1, "extra multiplier on every workload's rounds and operation counts")
		trace     = flag.Int("trace", 0, "1 = also run traced, with ladders, and report the per-layer metrics")
		out       = flag.String("out", "", "also write the result (or the calibration baseline) as JSON to this file")
		calibrate = flag.Int("calibrate", 0, "run every workload N times (seeds seed..seed+N-1) and check each metric's spread against its bound")
		compare   = flag.Bool("compare", false, "compare two baseline files given as arguments: a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *calibrate > 0:
		err = calibrateAll(*calibrate, *seed, *seconds, *scale, *out, os.Stdout)
	default:
		err = runOnce(*name, *seed, *scale**seconds/nominalSeconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// runOnce runs one workload and prints its result; an incorrect run is an
// error, after the result has been printed.
func runOnce(name string, seed uint64, scale float64, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if scale <= 0 {
		return fmt.Errorf("scale %g: must be positive", scale)
	}
	res, err := measure(w.scaled(scale), seed, scale, traced, filepath.Join("bench", "out"))
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness check failed (%d of %d operations failed)", name, res.Failed, res.Attempted)
	}
	return nil
}

// measure runs the (already scaled) workload untraced and, when traced is
// set, once more with the program's tracer and the harness's span recorder
// on, then the ladders; the spans go to traceDir. End-to-end numbers always
// come from the untraced run.
func measure(w workload, seed uint64, scale float64, traced bool, traceDir string) (*result, error) {
	plain := &run{w: w, seed: seed}
	if err := plain.execute(epoch); err != nil {
		plain.close()
		return nil, err
	}
	plain.close()
	res := &result{
		Workload: w.Name, Seed: seed, Scale: scale, Traced: traced,
		Correct: plain.correct(), Attempted: plain.attempted, Failed: plain.failed, Failures: plain.failures,
		EndToEnd: plain.e2e, PerLayer: plain.layer, Notes: plain.notes,
	}
	// Every end-to-end metric must have been measured on every workload.
	for _, d := range endToEnd {
		if v := res.EndToEnd[d.Name]; !(v > 0) || math.IsInf(v, 0) {
			res.EndToEnd[d.Name] = 0
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("end-to-end metric %s was not measured (%v)", d.Name, v))
		}
	}
	if !traced {
		return res, nil
	}

	tr := &run{w: w, seed: seed, traced: true, rec: newRecorder(), prog: make(programSpans)}
	defer tr.close()
	if err := tr.execute(time.Now()); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tr.runLadders(); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for metric, span := range map[string]string{
		"trace.client_encode_us":     "client.encode",
		"trace.client_await_us":      "client.await",
		"trace.server_queue_us":      "server.queue",
		"trace.server_execute_us":    "server.execute",
		"trace.server_accumulate_us": "server.accumulate",
		"trace.server_write_us":      "server.write",
		"trace.fleet_query_us":       "fleet.query",
	} {
		tr.layer[metric] = tr.prog.meanUs(span)
	}
	// Overhead is how much worse the workload's headline metric read with
	// tracing on.
	head := w.headline()
	if a, b := plain.e2e[head], tr.e2e[head]; a != 0 {
		pct := (b - a) / a * 100
		if better(head) == "higher" {
			pct = -pct
		}
		tr.layer["tracing.overhead_pct"] = pct
		tr.notes = append(tr.notes, fmt.Sprintf("tracing overhead on %s: untraced %.6g, traced %.6g", head, a, b))
	}

	// A layer figure that could not be formed (a ladder difference over
	// zero checkpoints) reads 0; JSON has no NaN.
	for name, v := range tr.layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			tr.layer[name] = 0
		}
	}
	spans, dropped := tr.rec.all()
	file := traceFile{Workload: w.Name, Seed: seed, Spans: spans, SpansDropped: dropped,
		ByName: selfTimes(spans), Program: tr.prog.sorted(), Counts: tr.layer}
	if err := writeJSON(filepath.Join(traceDir, "trace_"+w.Name+".json"), file); err != nil {
		return nil, err
	}

	res.PerLayer = tr.layer
	res.Notes = append(res.Notes, tr.notes...)
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Failures = append(res.Failures, tr.failures...)
	res.Correct = res.Correct && tr.correct()
	return res, nil
}

func better(metric string) string {
	for _, d := range endToEnd {
		if d.Name == metric {
			return d.Better
		}
	}
	return "lower"
}
