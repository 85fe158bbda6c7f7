package main

import (
	"testing"

	"printqueue/internal/groundtruth"
	"printqueue/internal/pktrec"
	"printqueue/internal/trace"
)

func useTempScratch(t *testing.T) {
	t.Helper()
	old := scratchRoot
	scratchRoot = t.TempDir()
	t.Cleanup(func() { scratchRoot = old })
}

// The plan must predict exactly the checkpoints the System takes, because a
// checkpoint's feed time is looked up by its FreezeTime.
func TestFeedPlanPredictsCheckpointsAndFindsFeedTimes(t *testing.T) {
	useTempScratch(t)
	w := workload{Name: "tiny", Preset: trace.WS, Hops: 1, Ports: 2, PktsPerPort: 20_000, PollNs: 1_000_000, Rounds: 2}
	in, err := makeInputs(w)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(in, stackOpts{pollNs: w.PollNs, rounds: w.Rounds})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	sw := st.sws[0]
	if fed := sw.plan.feed(sw.sink(), nil, nil); fed != int64(2*len(sw.in.stream)) {
		t.Fatalf("fed %d packets, want %d", fed, 2*len(sw.in.stream))
	}
	if err := sw.finishIngest(); err != nil {
		t.Fatal(err)
	}
	for _, p := range sw.in.ports {
		cps := sw.sys.Checkpoints(p.port)
		want := sw.plan.byPort[p.port]
		if len(cps) != len(want) || len(cps) < 10 {
			t.Fatalf("port %d: System took %d checkpoints, plan predicted %d", p.port, len(cps), len(want))
		}
		var prev int64
		for i, cp := range cps {
			if cp.FreezeTime != want[i].freeze {
				t.Fatalf("port %d checkpoint %d: FreezeTime %d, plan says %d", p.port, i, cp.FreezeTime, want[i].freeze)
			}
			f := sw.plan.lookup(p.port, cp.FreezeTime)
			if f != want[i] {
				t.Fatalf("port %d: lookup(%d) did not find the planned flip", p.port, cp.FreezeTime)
			}
			fed := f.fedAt.Load()
			if fed == 0 || fed < prev {
				t.Fatalf("port %d checkpoint %d: feed time %d after %d", p.port, i, fed, prev)
			}
			prev = fed
			if sw.plan.lookup(p.port, cp.FreezeTime+1) != nil && (i+1 == len(cps) || cps[i+1].FreezeTime != cp.FreezeTime+1) {
				t.Fatalf("port %d: lookup matched a FreezeTime no checkpoint has", p.port)
			}
		}
	}
	if sw.plan.lookup(99, 1) != nil {
		t.Error("lookup on an unknown port matched")
	}
	wall, cpu := sw.plan.roundRates(0, w.Rounds)
	if len(wall) != w.Rounds || len(cpu) > w.Rounds {
		t.Errorf("round rates: %d wall, %d cpu samples for %d rounds", len(wall), len(cpu), w.Rounds)
	}
}

// A first-hop port none of whose packets ever queued has no victim to
// diagnose; makeInputs must say so instead of handing the generators an
// empty list.
func TestPortWithoutVictimsIsAnError(t *testing.T) {
	// One packet in a thousand microseconds never meets another in the queue.
	w := workload{Name: "idle", Preset: trace.UW, Hops: 1, Ports: 1, PktsPerPort: 1, Rounds: 1}
	if _, err := makeInputs(w); err == nil {
		t.Fatal("makeInputs accepted a port with no victim")
	}
	p := &portInput{gt: groundtruth.NewCollector()}
	p.gt.Add(pktrec.Telemetry{EnqTimestamp: 1000, Bytes: 100}) // empty queue, no wait
	p.gt.Add(pktrec.Telemetry{EnqTimestamp: 2000, DeqTimedelta: 500, EnqQdepth: 2, Bytes: 100})
	p.finish()
	if len(p.victims) != 1 || len(p.buckets) != 1 || len(p.byDelay) != 1 {
		t.Fatalf("one queued packet: %d victims, %d groups, %d by delay", len(p.victims), len(p.buckets), len(p.byDelay))
	}
}
