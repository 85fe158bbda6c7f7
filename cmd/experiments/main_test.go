package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all.golden from this build's output")

const goldenPath = "testdata/all.golden"

// TestAllExperimentsGolden pins every figure, table and extension experiment
// the command prints: `experiments -run all -packets 200000 -victims 40`,
// run in process, must print testdata/all.golden byte for byte. The run is
// deterministic (seeded traces, simulated switch). A change that moves an
// answer on purpose re-records the file with -update-golden and shows the
// figure diff in review.
func TestAllExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the whole evaluation takes minutes under the race detector")
	}
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	*packets, *victims = 200000, 40
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()
	if err := run("all"); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d changed:\n  now    %s\n  golden %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, the golden file holds %d", len(gl)-1, len(wl)-1)
}
