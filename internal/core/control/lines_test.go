package control

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"printqueue/internal/pktrec"
)

// This file holds the ingest path to the rule DESIGN.md §6 states: a cache
// line that one shard worker writes per packet is touched by no other
// goroutine's per-packet path. The rule was broken for the first twenty PRs
// by one 8-byte object — the per-port packet counter, which the allocator
// packed two to a line in five Systems of eight — and cost those Systems
// 30 % of their ingest rate for life.

const lineBytes = 64

// span is a range of addresses, with what it is for the failure message.
type span struct {
	lo, hi uintptr // [lo, hi)
	what   string
}

func spanOf[T any](p *T, what string) span {
	lo := uintptr(unsafe.Pointer(p))
	return span{lo, lo + unsafe.Sizeof(*p), what}
}

func spanOfSlice[T any](s []T, what string) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(len(s))*unsafe.Sizeof(s[0]), what}
}

// sharesLine reports whether a and b have a cache line in common.
func sharesLine(a, b span) bool {
	return a.lo/lineBytes <= (b.hi-1)/lineBytes && b.lo/lineBytes <= (a.hi-1)/lineBytes
}

// wholeLines reports whether s starts on a line and ends on one: then
// whatever the allocator puts next to it shares none.
func wholeLines(s span) bool { return s.lo%lineBytes == 0 && s.hi%lineBytes == 0 }

// workerSpans is what one shard worker's goroutine touches while ingesting.
type workerSpans struct {
	perPacket []span // written once per packet (or per packet that passes a cell on)
	touched   []span // perPacket, plus what it writes per batch and reads per packet
}

// ingestSpans builds a System and a Pipeline and collects, per shard worker,
// the memory its per-packet path touches, and what the one producer goroutine
// (Pipeline.Ingest, which takes every port's decisions) touches per packet.
// Whether the port packet counters belong to perPacket is not assumed but
// observed: a worker stopped between a batch's last insert and the end of
// the batch shows whether it counted the batch's packets on the way.
func ingestSpans(t *testing.T, cfg Config, shards int) (workers []workerSpans, producer []span) {
	t.Helper()
	const batch = 32
	cfg.DPTrigger = func(p *pktrec.Packet) bool { return p.Meta.EnqQdepth == 99 }
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = sys.Config() // normalized
	pl, err := NewPipeline(sys, PipelineConfig{Shards: shards, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	// One batch for the first port, ended by a data-plane query. The worker
	// inserts the batch, then freezes the special set and waits to retire it
	// for the history lock held here: a counter that moves per packet has
	// moved by then.
	ps := sys.ports[cfg.Ports[0]]
	ps.mu.Lock()
	for i := 0; i < batch; i++ {
		depth := 10
		if i == batch-1 {
			depth = 99
		}
		pl.Ingest(deq(fkey(1), cfg.Ports[0], uint64(100+i), uint64(200+i), depth))
	}
	for deadline := time.Now().Add(10 * time.Second); sys.stats.entriesRead.Load() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the batch's data-plane query never froze")
		}
	}
	countedOnTheWay := ps.packets.Load()
	ps.mu.Unlock()
	pl.Close()
	if st := sys.Stats(); st.SpecialFreezes != 1 || st.PacketsObserved != batch {
		t.Fatalf("%d special freezes and %d packets counted, want 1 and %d", st.SpecialFreezes, st.PacketsObserved, batch)
	}
	counterPerPacket := countedOnTheWay != 0

	pl, err = NewPipeline(sys, PipelineConfig{Shards: shards, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	workers = make([]workerSpans, shards)
	producer = append(producer, spanOf(pl, "Pipeline"), spanOfSlice(pl.shardOf, "Pipeline.shardOf"),
		spanOfSlice(sys.portTab, "System.portTab"),
		spanOf(sys.stats.tsRegressions, "timestamp regressions counter"),
		spanOf(sys.stats.dpSuppressed, "DP suppressed counter"))
	for i, sh := range pl.shards {
		w := &workers[i]
		name := fmt.Sprintf("shard %d ", i)
		producer = append(producer, spanOf(sh, name+"struct"))
		w.touched = append(w.touched,
			spanOf(sh, name+"struct"),
			spanOf(sh.occupancy, name+"occupancy gauge"),
			spanOf(sh.batches, name+"batches counter"),
			spanOf(sh.packets, name+"packets counter"))
	}
	for rank, port := range cfg.Ports {
		ps := sys.ports[port]
		w := &workers[rank%shards]
		name := fmt.Sprintf("port %d ", port)
		w.touched = append(w.touched, spanOf(ps, name+"portState"))
		feed := spanOf(ps.feed, name+"decision state")
		if !wholeLines(feed) {
			t.Errorf("%s at %#x, %d bytes: not whole cache lines", feed.what, feed.lo, feed.hi-feed.lo)
		}
		producer = append(producer, spanOf(ps, name+"portState"), feed)
		counter := spanOf(ps.packets, name+"packet counter")
		if counterPerPacket {
			w.perPacket = append(w.perPacket, counter)
		} else {
			w.touched = append(w.touched, counter)
		}
		for _, sel := range allSets() {
			set := fmt.Sprintf("%sset %d ", name, sel.index())
			tw := spanOf(ps.tw[sel.index()], set+"Windows")
			if !wholeLines(tw) {
				t.Errorf("%s at %#x, %d bytes: not whole cache lines", tw.what, tw.lo, tw.hi-tw.lo)
			}
			w.perPacket = append(w.perPacket, tw)
			for i, f := range sys.twFiles {
				w.perPacket = append(w.perPacket, spanOfSlice(f.View(sel.dp, sel.flip, rank), fmt.Sprintf("%swindow %d registers", set, i)))
			}
			for q := range ps.qm {
				qm := spanOf(ps.qm[q][sel.index()], fmt.Sprintf("%squeue %d Monitor", set, q))
				if !wholeLines(qm) {
					t.Errorf("%s at %#x, %d bytes: not whole cache lines", qm.what, qm.lo, qm.hi-qm.lo)
				}
				view := sys.qmFile.View(sel.dp, sel.flip, rank*cfg.QueuesPerPort+q)
				w.perPacket = append(w.perPacket, qm, spanOfSlice(view[:cfg.QM.Entries()], fmt.Sprintf("%squeue %d monitor registers", set, q)))
			}
		}
	}
	for i := range workers {
		workers[i].touched = append(workers[i].touched, workers[i].perPacket...)
	}
	return workers, producer
}

// TestNoSharedLinesOnThePacketPath: in every System, whatever the allocator
// did while it was built, no line a shard worker writes per packet is touched
// by another worker's ingest path or by the producer's — the ports' decision
// state, which the producer writes per packet, included. (A Windows' passes
// array, which this package cannot reach, is held to whole lines of its own
// by timewindow's TestHotWordsOwnTheirLines.)
func TestNoSharedLinesOnThePacketPath(t *testing.T) {
	check := func(name string, cfg Config, shards int) {
		workers, producer := ingestSpans(t, cfg, shards)
		for i, w := range workers {
			for _, hot := range w.perPacket {
				for j, other := range workers {
					if i == j {
						continue
					}
					for _, o := range other.touched {
						if sharesLine(hot, o) {
							t.Errorf("%s: worker %d writes %s [%#x,%#x) per packet on a line worker %d touches for %s [%#x,%#x)",
								name, i, hot.what, hot.lo, hot.hi, j, o.what, o.lo, o.hi)
						}
					}
				}
				for _, o := range producer {
					if sharesLine(hot, o) {
						t.Errorf("%s: worker %d writes %s [%#x,%#x) per packet on a line the producer touches for %s [%#x,%#x)",
							name, i, hot.what, hot.lo, hot.hi, o.what, o.lo, o.hi)
					}
				}
			}
		}
	}
	for n := 0; n < 16 && !t.Failed(); n++ {
		check(fmt.Sprintf("two-port System %d", n), testConfig(0, 1), 2)
	}
	cfg := testConfig(0, 1, 2, 3, 4, 5, 6, 7)
	cfg.QueuesPerPort = 2
	check("eight-port System", cfg, 3)
}
