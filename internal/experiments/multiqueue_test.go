package experiments

import (
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
	"printqueue/internal/switchsim"
	"printqueue/internal/trace"
)

// TestPerQueueMonitors exercises §5's "multiple queues are tracked
// individually": under strict priority with two classes, each class's
// queue monitor implicates only that class's flows.
func TestPerQueueMonitors(t *testing.T) {
	hi := flow.Key{SrcIP: [4]byte{10, 3, 0, 1}, DstIP: [4]byte{10, 3, 1, 1}, SrcPort: 1, DstPort: 80, Proto: flow.ProtoUDP}
	lo := flow.Key{SrcIP: [4]byte{10, 3, 0, 2}, DstIP: [4]byte{10, 3, 1, 1}, SrcPort: 2, DstPort: 80, Proto: flow.ProtoTCP}

	// Two saturating flows, one per class, on a 10 Gbps port.
	pkts, err := trace.Schedule(0, 1,
		trace.PacedFlow{Flow: hi, RateBps: 6e9, PacketBytes: 1500, EndNs: 4e6, Queue: 0},
		trace.PacedFlow{Flow: lo, RateBps: 6e9, PacketBytes: 1500, EndNs: 4e6, Queue: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(pkts, RunConfig{
		LinkBps:       10e9,
		BufferCells:   200000,
		TW:            Preset(trace.WS, 0, 1).TW,
		QM:            qmonitor.Config{MaxDepthCells: 262144, GranuleCells: 19},
		QueuesPerPort: 2,
		Scheduler:     switchsim.StrictPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The low-priority class is starved: its queue grows while the
	// high-priority class drains promptly.
	var peakLo uint32
	for i := 0; i < run.GT.Len(); i++ {
		r := run.GT.Record(i)
		if r.Flow == lo && r.EnqQdepth > peakLo {
			peakLo = r.EnqQdepth
		}
	}
	if peakLo < 1000 {
		t.Fatalf("low-priority queue never built up (peak %d cells)", peakLo)
	}
	// Query each queue's original culprits mid-run.
	mid := pkts[len(pkts)/2].Arrival
	for q, want := range map[int]flow.Key{0: hi, 1: lo} {
		counts, err := run.Sys.QueryOriginal(run.Port, q, mid)
		if err != nil {
			t.Fatal(err)
		}
		if counts[want] == 0 {
			t.Fatalf("queue %d monitor missed its own flow %v: %v", q, want, counts)
		}
		other := hi
		if want == hi {
			other = lo
		}
		if counts[other] != 0 {
			t.Fatalf("queue %d monitor leaked flow %v: %v", q, other, counts)
		}
	}
}

// TestExecuteValidation covers the runner's error paths.
func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(nil, RunConfig{}); err == nil {
		t.Fatal("empty schedule accepted")
	}
	pkts := []*pktrec.Packet{{Flow: flow.Key{SrcPort: 1, Proto: flow.ProtoTCP}, Bytes: 100, Arrival: 1}}
	if _, err := Execute(pkts, RunConfig{}); err == nil {
		t.Fatal("zero link rate accepted")
	}
	cfg := Preset(trace.UW, 10, 1).RunConfigFor(false)
	cfg.TW.T = 0
	if _, err := Execute(pkts, cfg); err == nil {
		t.Fatal("bad TW config accepted")
	}
}
