package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"printqueue/internal/tracing"
)

// result is what one invocation measured, in the form -out writes and
// -calibrate reads back.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Scale     float64            `json:"scale"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// driverLine is the last line of standard output: exactly the keys the
// driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, the notes, and — last —
// the driver's line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func (res *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  traced %v\n", res.Workload, res.Seed, res.Scale, res.Traced)
	defs, values := endToEnd, res.EndToEnd
	section := func(title string, defs []metricDef, values map[string]float64) {
		fmt.Fprintf(w, "\n%s\n", title)
		for _, d := range defs {
			fmt.Fprintf(w, "  %-46s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
		}
	}
	section("end to end (untraced run)", endToEnd, res.EndToEnd)
	if res.Traced {
		section("per layer (traced run, ladders, direct calls, counters)", perLayer, res.PerLayer)
		defs, values = perLayer, res.PerLayer
	}
	fmt.Fprintln(w)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "\noperations attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED "+f)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]driverValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceFile is bench/out/trace_<workload>.json: the harness's spans with
// their per-name roll-up, and the program's own tracer's span names rolled
// up beside them.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Spans        []span             `json:"spans"`
	SpansDropped int                `json:"spans_dropped"`
	ByName       []spanAgg          `json:"by_name"`
	Program      []spanAgg          `json:"program_tracer_by_name"`
	Counts       map[string]float64 `json:"counts"`
}

// programSpans rolls up the program's own tracer: every span of every
// retained trace by name, and each trace's whole duration under its name.
type programSpans map[string]*spanAgg

func (ps programSpans) add(name string, durNs uint64) {
	a := ps[name]
	if a == nil {
		a = &spanAgg{Name: name}
		ps[name] = a
	}
	a.Count++
	a.TotalNs += int64(durNs)
	a.SelfNs += int64(durNs)
}

// absorb rolls up the retained traces of the given tracers. only, when not
// empty, keeps just the spans of that name and drops the traces' own
// durations.
func (ps programSpans) absorb(only string, tracers ...*tracing.Tracer) {
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, tr := range t.Traces() {
			if only == "" {
				ps.add(tr.Name(), tr.DurNs())
			}
			for _, sp := range tr.Spans() {
				if only == "" || sp.Name == only {
					ps.add(sp.Name, sp.Dur)
				}
			}
		}
	}
}

func (ps programSpans) meanUs(name string) float64 {
	a := ps[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.TotalNs) / 1e3 / float64(a.Count)
}

func (ps programSpans) sorted() []spanAgg {
	out := make([]spanAgg, 0, len(ps))
	for _, a := range ps {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
