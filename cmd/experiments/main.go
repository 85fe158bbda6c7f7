// Command experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate, plus this reproduction's
// extension experiments. Each experiment prints the same rows/series the
// paper reports; absolute numbers differ (synthetic traces, simulated
// switch) but the shapes reproduce. See EXPERIMENTS.md.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig9 -packets 1000000 -victims 100
//	experiments -run table2,fig16 -seed 3
//	experiments -run fig13 -csv > fig13.csv
//
// Experiments: fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig16tcp
// table2 schedulers conquest
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"printqueue/internal/experiments"
	"printqueue/internal/trace"
)

var (
	runFlag = flag.String("run", "all", "comma-separated experiments to run (fig9..fig16, table2, schedulers, all)")
	packets = flag.Int("packets", 500000, "trace length in packets for measurement experiments")
	victims = flag.Int("victims", 100, "victims sampled per bucket/band")
	seed    = flag.Uint64("seed", 1, "workload generator seed")
	scale   = flag.Float64("scale", 0.2, "case-study time scale (1.0 = the paper's full 500 ms run)")
	csvOut  = flag.Bool("csv", false, "emit comma-separated rows instead of aligned tables")
)

// stdout is where every experiment prints; the golden test captures it.
var stdout io.Writer = os.Stdout

// printer renders experiment rows either as aligned tables or CSV.
type printer struct {
	tw  *tabwriter.Writer
	csv bool
}

func newPrinter() *printer {
	if *csvOut {
		return &printer{csv: true}
	}
	return &printer{tw: tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)}
}

// row emits one row of cells.
func (p *printer) row(cells ...string) {
	if p.csv {
		fmt.Fprintln(stdout, strings.Join(cells, ","))
		return
	}
	fmt.Fprintln(p.tw, strings.Join(cells, "\t"))
}

// flush completes the table.
func (p *printer) flush() {
	if !p.csv {
		p.tw.Flush()
	}
}

// section prints a human heading (suppressed in CSV mode, where a comment
// line is used so files remain machine-readable).
func section(format string, args ...interface{}) {
	if *csvOut {
		fmt.Fprintf(stdout, "# "+format+"\n", args...)
		return
	}
	fmt.Fprintf(stdout, format+"\n", args...)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func main() {
	log.SetFlags(0)
	flag.Parse()
	if err := run(*runFlag); err != nil {
		log.Fatal(err)
	}
}

// run runs the comma-separated selection of experiments ("all" for every
// one), in the order they are listed here.
func run(selection string) error {
	want := map[string]bool{}
	for _, name := range strings.Split(selection, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0
	for _, exp := range []struct {
		name string
		fn   func() error
	}{
		{"fig9", fig9},
		{"table2", table2},
		{"fig10", fig10},
		{"fig11", fig11},
		{"fig12", fig12},
		{"fig13", fig13},
		{"fig14", fig14},
		{"fig15", fig15},
		{"fig16", fig16},
		{"fig16tcp", fig16tcp},
		{"schedulers", schedulers},
		{"conquest", conquestCmp},
	} {
		if !all && !want[exp.name] {
			continue
		}
		ran++
		section("==== %s ====", exp.name)
		if err := exp.fn(); err != nil {
			return fmt.Errorf("%s: %v", exp.name, err)
		}
		fmt.Fprintln(stdout)
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment selection %q", selection)
	}
	return nil
}

func fig9() error {
	for _, w := range []trace.Workload{trace.UW, trace.WS, trace.DM} {
		res, err := experiments.Fig9(w, *packets, *seed, *victims)
		if err != nil {
			return err
		}
		section("-- %s: precision/recall vs queue depth (10^3 cells) --", w)
		p := newPrinter()
		p.row("depth", "AQ prec", "AQ rec", "DQ prec", "DQ rec", "AQ n", "DQ n")
		for _, r := range res.Rows {
			p.row(r.Bucket, f3(r.AQPrecision), f3(r.AQRecall), f3(r.DQPrecision), f3(r.DQRecall),
				fmt.Sprint(r.AQVictims), fmt.Sprint(r.DQVictims))
		}
		p.flush()
	}
	return nil
}

func table2() error {
	rows, err := experiments.Table2(*packets, *seed, *victims)
	if err != nil {
		return err
	}
	section("-- average precision/recall: PrintQueue vs HashPipe vs FlowRadar --")
	p := newPrinter()
	p.row("trace", "PQ prec", "PQ rec", "HP prec", "HP rec", "FR prec", "FR rec")
	for _, r := range rows {
		p.row(r.Trace.String(), f3(r.PQPrecision), f3(r.PQRecall),
			f3(r.HPPrecision), f3(r.HPRecall), f3(r.FRPrecision), f3(r.FRRecall))
	}
	p.flush()
	return nil
}

func fig10() error {
	bands, err := experiments.Fig10(*packets, *seed, *victims)
	if err != nil {
		return err
	}
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	for _, b := range bands {
		section("-- UW, queue depth %s: accuracy CDF quantiles --", b.Band)
		p := newPrinter()
		p.row("series", "p10", "p25", "p50", "p75", "p90")
		for _, s := range []struct {
			name string
			vals []float64
		}{
			{"PQ precision", b.PQPrec}, {"PQ recall", b.PQRec},
			{"HP precision", b.HPPrec}, {"HP recall", b.HPRec},
			{"FR precision", b.FRPrec}, {"FR recall", b.FRRec},
		} {
			cells := []string{s.name}
			for _, q := range quantiles {
				cells = append(cells, f3(quantile(s.vals, q)))
			}
			p.row(cells...)
		}
		p.flush()
	}
	return nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fig11() error {
	for _, v := range experiments.Fig11Variants {
		res, err := experiments.Fig11(v, *packets, *seed, *victims)
		if err != nil {
			return err
		}
		section("-- UW, %s: median accuracy by depth --", v)
		p := newPrinter()
		p.row("depth", "PQ P", "PQ R", "HP P", "HP R", "FR P", "FR R")
		for _, r := range res.Rows {
			p.row(r.Bucket, f3(r.PQPrecision), f3(r.PQRecall),
				f3(r.HPPrecision), f3(r.HPRecall), f3(r.FRPrecision), f3(r.FRRecall))
		}
		p.flush()
	}
	return nil
}

func fig12() error {
	rows, err := experiments.Fig12(*packets, *seed)
	if err != nil {
		return err
	}
	section("-- UW, alpha=1 k=12 T=5: Top-K accuracy per window --")
	p := newPrinter()
	p.row("window", "K", "precision", "recall")
	for _, r := range rows {
		k := fmt.Sprint(r.K)
		if r.K == 0 {
			k = "all"
		}
		p.row(fmt.Sprint(r.Window), k, f3(r.Precision), f3(r.Recall))
	}
	p.flush()
	return nil
}

func fig13() error {
	rows, err := experiments.Fig13(*packets, *seed, *victims)
	if err != nil {
		return err
	}
	section("-- UW: control-plane storage overhead vs accuracy (alpha_k_T) --")
	p := newPrinter()
	p.row("config", "MB/s", "precision", "recall", "feasible")
	for _, r := range rows {
		p.row(r.Config.Label(), f2(r.MBps), f3(r.Precision), f3(r.Recall), fmt.Sprint(r.Feasible))
	}
	p.flush()
	return nil
}

func fig14() error {
	section("-- (a) linear : exponential storage ratio --")
	p := newPrinter()
	p.row("alpha", "duration(ns)", "ratio")
	for _, r := range experiments.Fig14a() {
		p.row(fmt.Sprint(r.Alpha), fmt.Sprintf("2^%d", log2(r.DurationNs)), f1(r.Ratio))
	}
	p.flush()
	section("-- (b) SRAM usage of time windows (k_T) --")
	p = newPrinter()
	p.row("k_T", "bytes", "utilization%")
	for _, r := range experiments.Fig14b() {
		p.row(fmt.Sprintf("%d_%d", r.K, r.T), fmt.Sprint(r.SRAMBytes), f2(r.Utilization))
	}
	p.flush()
	return nil
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func fig15() error {
	rows, err := experiments.Fig15(*packets, *seed, *victims)
	if err != nil {
		return err
	}
	section("-- WS: accuracy and SRAM vs activated ports --")
	p := newPrinter()
	p.row("ports", "alpha", "k", "SRAM%", "precision", "recall")
	for _, r := range rows {
		p.row(fmt.Sprint(r.Ports), fmt.Sprint(r.Alpha), fmt.Sprint(r.K),
			f2(r.SRAMPercent), f3(r.Precision), f3(r.Recall))
	}
	p.flush()
	return nil
}

func fig16() error {
	r, err := experiments.Fig16(*scale)
	if err != nil {
		return err
	}
	return printFig16(r, "open-loop senders")
}

func fig16tcp() error {
	r, err := experiments.Fig16TCP(*scale)
	if err != nil {
		return err
	}
	return printFig16(r, "closed-loop TCP senders")
}

func printFig16(r *experiments.Fig16Result, variant string) error {
	section("-- case study (scale %.2f, %s) --", *scale, variant)
	section("burst duration: %.2f ms; congestion duration: %.2f ms (%.0fx)",
		float64(r.BurstDurationNs)/1e6, float64(r.CongestionDurationNs)/1e6,
		float64(r.CongestionDurationNs)/float64(max64(r.BurstDurationNs, 1)))
	section("victim: new TCP packet at depth %d cells", r.VictimDepth)
	p := newPrinter()
	p.row("culprits", "burst%", "background%", "newTCP%", "other%")
	for _, row := range []struct {
		name string
		s    experiments.Fig16Shares
	}{
		{"direct", r.Direct}, {"indirect", r.Indirect}, {"original", r.Original},
	} {
		p.row(row.name, f1(row.s.Burst), f1(row.s.Background), f1(row.s.NewTCP), f1(row.s.Other))
	}
	p.flush()
	section("original culprit packets burst:background = %.0f:%.0f",
		r.OriginalBurst, r.OriginalBackground)
	if !*csvOut {
		fmt.Fprintln(stdout, "queue depth over time (figure 16a):")
		fmt.Fprintln(stdout, sparkline(r.Depth, 100))
	}
	return nil
}

// sparkline renders a depth series as a fixed-width ASCII chart.
func sparkline(series []experiments.Fig16DepthSample, width int) string {
	if len(series) == 0 {
		return "(no samples)"
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	start := series[0].EnqTS
	end := series[len(series)-1].EnqTS
	if end <= start {
		end = start + 1
	}
	maxDepth := 1
	buckets := make([]int, width)
	for _, p := range series {
		i := int(uint64(width-1) * (p.EnqTS - start) / (end - start))
		if p.Depth > buckets[i] {
			buckets[i] = p.Depth
		}
		if p.Depth > maxDepth {
			maxDepth = p.Depth
		}
	}
	out := make([]rune, width)
	for i, d := range buckets {
		out[i] = levels[d*(len(levels)-1)/maxDepth]
	}
	return fmt.Sprintf("  %s\n  0 ms%*s%.1f ms (peak %d cells)",
		string(out), width-9, "", float64(end-start)/1e6, maxDepth)
}

func schedulers() error {
	rows, err := experiments.SchedulerAgnosticism(*packets, *seed, *victims)
	if err != nil {
		return err
	}
	section("-- extension: direct-culprit accuracy under four scheduling disciplines (WS) --")
	p := newPrinter()
	p.row("scheduler", "precision", "recall", "victims", "max depth")
	for _, r := range rows {
		p.row(r.Scheduler.String(), f3(r.Precision), f3(r.Recall),
			fmt.Sprint(r.Victims), fmt.Sprint(r.MaxDepth))
	}
	p.flush()
	return nil
}

func conquestCmp() error {
	res, err := experiments.ConQuestComparison(*packets, *seed, *victims, 20e6)
	if err != nil {
		return err
	}
	section("-- extension: ConQuest vs PrintQueue for victim diagnosis (UW, %d victims) --", res.Victims)
	p := newPrinter()
	p.row("system", "precision", "recall")
	p.row("ConQuest at enqueue (online)", f3(res.OnlinePrecision), f3(res.OnlineRecall))
	p.row("ConQuest 20 ms later (async)", f3(res.AsyncPrecision), f3(res.AsyncRecall))
	p.row("PrintQueue (async)", f3(res.PQPrecision), f3(res.PQRecall))
	p.flush()
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
