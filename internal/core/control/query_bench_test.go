package control

import (
	"runtime"
	"sync"
	"testing"

	"printqueue/internal/core/timewindow"
)

// benchHistory lazily builds one deep checkpoint history shared by the
// query benchmarks: 256 paper-scale checkpoints over a 24-flow trace.
// (Deeper histories at k=12 push the live heap past a gigabyte and GC
// marking drowns the measurement.)
var benchHistory struct {
	once sync.Once
	sys  *System
	end  uint64
}

func benchDeepSystem(b *testing.B) (*System, uint64) {
	b.Helper()
	benchHistory.once.Do(func() {
		// The paper's UW-trace windows (m0=6, k=12, alpha=2, T=4): the
		// regime the cell index targets, where a full scan touches T*2^k
		// cells per overlapping checkpoint.
		cfg := testConfig(0)
		cfg.TW = timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
		cfg.PollPeriodNs = cfg.TW.WindowPeriod(0)
		s, err := New(cfg)
		if err != nil {
			panic(err)
		}
		// Bursty traffic: flows send 256-packet trains, so a narrow interval
		// overlaps a handful of flows while the full history holds 24.
		var ts uint64 = 1000
		for len(s.Checkpoints(0)) < 256 {
			ts += 80
			s.OnDequeue(deq(fkey(byte(ts/80/256%24)), 0, ts-160, ts, 8))
		}
		s.Finalize(ts + 1)
		// Pre-build every checkpoint's filter + cell index so both paths
		// measure steady-state query cost, not the lazy one-time build.
		for _, cp := range s.Checkpoints(0) {
			cp.Filtered()
		}
		// Flush the setup's garbage so the first sub-benchmark doesn't pay
		// the trace-construction mark debt.
		runtime.GC()
		benchHistory.sys = s
		benchHistory.end = ts
	})
	return benchHistory.sys, benchHistory.end
}

// BenchmarkQueryInterval measures the interval-query path over a deep
// (256 checkpoint, k=12) history. The narrow case — a recent, short interval,
// the common diagnosis query — is where checkpoint pruning and the cell
// index pay off; the wide case touches every checkpoint and bounds the
// index's overhead. The scan rows run the test oracle (scanInterval) over
// the same intervals: what an answer costs without pruning or index.
func BenchmarkQueryInterval(b *testing.B) {
	s, end := benchDeepSystem(b)
	indexed := func(lo, hi uint64) error {
		_, err := s.QueryInterval(0, lo, hi)
		return err
	}
	scan := func(lo, hi uint64) error {
		scanInterval(s, 0, lo, hi)
		return nil
	}
	cases := []struct {
		name   string
		lo, hi uint64
		query  func(lo, hi uint64) error
	}{
		// The narrow interval models a diagnosis query: one victim packet's
		// queuing interval, a few µs against the whole retained history.
		{"narrow/indexed", end - 4096, end, indexed},
		{"narrow/scan", end - 4096, end, scan},
		{"wide/indexed", 0, end + 1, indexed},
		{"wide/scan", 0, end + 1, scan},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.query(c.lo, c.hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryIntervalParallel measures the same wide query through the
// QueryServer: a slot, then the same fold on the calling goroutine.
func BenchmarkQueryIntervalParallel(b *testing.B) {
	s, end := benchDeepSystem(b)
	qs := NewQueryServer(s)
	qs.Start(4)
	defer qs.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := qs.Interval(0, 0, end+1); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
