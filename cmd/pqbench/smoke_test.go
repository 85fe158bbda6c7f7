package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// small shrinks a workload to a smoke test: -scale 0.01 and a shorter
// trace, so all four fit in a few seconds.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(0.01)
	w.PktsPerPort /= 8
	if w.OpenLoop {
		w.QueryRate = 400 // the feed lasts a tenth of a second
	}
	return w
}

func TestSmokeAllWorkloads(t *testing.T) {
	useTempScratch(t)
	start := time.Now()
	for _, def := range workloads {
		res, err := measure(small(t, def.Name), 1, 0.01, false, "")
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, failed %d of %d: %v", def.Name, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v): must be a positive number", def.Name, d.Name, v, ok)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke of all four workloads took %v, want under 10s", d)
	}
}

// The traced run must produce every per-layer metric, write the trace
// file, and find the pipeline's Stats equal to the serial path's on the
// ladder (a mismatch is a failed operation).
func TestTracedRunReportsEveryLayer(t *testing.T) {
	useTempScratch(t)
	dir := t.TempDir()
	res, err := measure(small(t, "ingest_dense_checkpoints"), 1, 0.01, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace_ingest_dense_checkpoints.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.ByName) == 0 || len(tf.Program) == 0 {
		t.Errorf("trace file holds %d spans, %d names, %d program span names", len(tf.Spans), len(tf.ByName), len(tf.Program))
	}
}

// Counts are exact for a seed; a different seed asks different questions.
func TestSameSeedSameCounts(t *testing.T) {
	useTempScratch(t)
	w := small(t, "history_fleet")
	exact := func(res *result) []float64 {
		return []float64{res.PerLayer["control.checkpoint.count"], res.EndToEnd["log_bytes_per_checkpoint"],
			res.EndToEnd["diag_precision"], res.EndToEnd["diag_recall"]}
	}
	a, err := measure(w, 7, 0.01, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(w, 7, 0.01, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact(a), exact(b)) {
		t.Errorf("same seed, different counts: %v vs %v", exact(a), exact(b))
	}

	in, err := makeInputs(w)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(in, stackOpts{rounds: w.Rounds})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	same := newOpGen(st, 7, 1).narrow(50)
	if again := newOpGen(st, 7, 1).narrow(50); !reflect.DeepEqual(same, again) {
		t.Error("the same seed drew different operations")
	}
	if other := newOpGen(st, 8, 1).narrow(50); reflect.DeepEqual(same, other) {
		t.Error("a different seed drew the same operations")
	}
}

// BENCHMARK.json at the repository root carries spec.go's tables; the two
// must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go, which says:\n%s", benchmarkJSON())
	}
	if narrow := workloads[3].Narrow; highestPercentile(narrow) < 99 {
		t.Errorf("history_fleet issues %d narrow diagnoses: too few for the p99 it reports", narrow)
	}
}
