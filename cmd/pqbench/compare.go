package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// baseline is a committed point of the benchmark's trajectory
// (bench/BENCH_PR<n>.json): for every workload, each end-to-end metric's
// median and quartiles over the calibration's runs, and the per-layer
// metrics of one traced run.
type baseline struct {
	Commit    string                       `json:"commit"`
	GoVersion string                       `json:"go_version"`
	NProc     int                          `json:"nproc"`
	Seconds   float64                      `json:"seconds"`
	Scale     float64                      `json:"scale"`
	Seeds     []uint64                     `json:"seeds"`
	Command   string                       `json:"command"`
	Workloads map[string]*baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	EndToEnd  map[string]baselineMetric `json:"end_to_end"`
	PerLayer  map[string]float64        `json:"per_layer,omitempty"`
}

type baselineMetric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
}

// worseBy is how much worse b reads than a, as a share of a, for a metric
// of the given direction; negative is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	return d
}

// calibrateAll runs every workload n times on this code, each run its own
// process and its own seed as the driver does, and checks each end-to-end
// metric's spread against its bound.
func calibrateAll(n int, seed uint64, seconds, scale float64, out string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := &baseline{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seconds: seconds, Scale: scale, Workloads: make(map[string]*baselineWorkload),
		Command: fmt.Sprintf("pqbench -calibrate %d -seed %d -seconds %g -scale %g", n, seed, seconds, scale),
	}
	for i := 0; i < n; i++ {
		base.Seeds = append(base.Seeds, seed+uint64(i))
	}
	over := 0
	for _, wl := range workloads {
		values := make(map[string][]float64)
		bw := &baselineWorkload{EndToEnd: make(map[string]baselineMetric)}
		base.Workloads[wl.Name] = bw
		for _, s := range base.Seeds {
			line, err := child(self, wl.Name, s, seconds, scale, false)
			if err != nil {
				return err
			}
			for name, v := range line.Metrics {
				values[name] = append(values[name], v.Value)
			}
			bw.Attempted += line.Attempted
			bw.Failed += line.Failed
		}
		fmt.Fprintf(w, "\n%s (%d runs, failed %d of %d operations)\n", wl.Name, n, bw.Failed, bw.Attempted)
		fmt.Fprintf(w, "  %-26s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			sp := quartiles(values[d.Name])
			bw.EndToEnd[d.Name] = baselineMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				N: sp.N, Median: sp.Median, Q1: sp.Q1, Q3: sp.Q3, Spread: sp.Share}
			mark := ""
			if sp.Share > d.Bound {
				mark = "  SPREAD EXCEEDS BOUND"
				over++
			} else if sp.Share > d.Bound/3 {
				mark = "  (above a third of the bound)"
			}
			fmt.Fprintf(w, "  %-26s %14.6g %14.6g %14.6g %7.2f%% %5.1f%%%s\n", d.Name, sp.Q1, sp.Median, sp.Q3, 100*sp.Share, 100*d.Bound, mark)
		}
		if out != "" {
			line, err := child(self, wl.Name, seed, seconds, scale, true)
			if err != nil {
				return err
			}
			bw.PerLayer = make(map[string]float64, len(line.Metrics))
			for name, v := range line.Metrics {
				bw.PerLayer[name] = v.Value
			}
		}
		if bw.Failed > 0 {
			over++
		}
	}
	if out != "" {
		if err := writeJSON(out, base); err != nil {
			return err
		}
	}
	if over > 0 {
		return fmt.Errorf("calibration failed: %d metric spreads beyond their bound or workloads with failed operations", over)
	}
	return nil
}

// child runs one workload in a fresh process and parses its last line.
func child(self, workload string, seed uint64, seconds, scale float64, traced bool) (*driverLine, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		// The child prints what failed before it exits; pass it on.
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "FAILED") {
				fmt.Fprintln(os.Stderr, strings.TrimSpace(l))
			}
		}
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line driverLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &line, nil
}

// commit names the code a baseline was measured on.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints, for every workload and end-to-end metric two
// baselines share, the change of the median from a to b, and flags any that
// worsened by more than the metric's bound — the check a CI step runs
// against the last committed baseline.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: a.json b.json")
	}
	var a, b baseline
	for i, dst := range []*baseline{&a, &b} {
		raw, err := os.ReadFile(args[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
	}
	fmt.Fprintf(w, "a: %s (%s)\nb: %s (%s)\n", args[0], a.Commit, args[1], b.Commit)
	regressions := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse := worseBy(ma.Median, mb.Median, d.Better)
			verdict := "within bound"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse > 0 && (ma.Spread > d.Bound || mb.Spread > d.Bound):
				verdict = "unresolved: spread wider than bound"
			case worse < 0:
				verdict = "better"
			}
			fmt.Fprintf(w, "  %-26s %14.6g -> %14.6g %-10s %+7.2f%% worse (bound %.1f%%)  %s\n",
				d.Name, ma.Median, mb.Median, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "  b failed %d of %d operations\n", wb.Failed, wb.Attempted)
			regressions++
		}
		// Layers carry no bound; list the ones that moved, as pointers to
		// where an end-to-end change came from.
		for _, d := range perLayer {
			va, okA := wa.PerLayer[d.Name]
			vb, okB := wb.PerLayer[d.Name]
			if !okA || !okB || va == 0 {
				continue
			}
			if ch := (vb - va) / va; ch > 0.10 || ch < -0.10 {
				fmt.Fprintf(w, "  layer %-44s %14.6g -> %14.6g %-6s (%+.1f%%)\n", d.Name, va, vb, d.Unit, 100*ch)
			}
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bound", regressions)
	}
	return nil
}
