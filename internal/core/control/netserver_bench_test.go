package control

import (
	"net"
	"sync"
	"testing"
	"time"

	"printqueue/internal/tracing"
)

// The BenchmarkNetQuery suite measures the query wire sequential, pipelined
// and batched on one TCP connection.
//
// Raw loopback has ~0 RTT, so on loopback every mode degenerates to a
// CPU benchmark and pipelining — whose entire purpose is keeping the pipe
// full across the round trip — can't be observed. The suite therefore
// injects a fixed one-way propagation delay (benchRTT/2, applied uniformly
// to every mode via the client dialer) the way pipelining benchmarks
// conventionally do: infinite bandwidth, fixed delay, order preserved,
// writes never blocked. Per-connection queries/sec under that identical
// network is the figure of merit.
const benchRTT = 2 * time.Millisecond

// delayConn adds a fixed propagation delay to writes: Write returns
// immediately and a deliverer goroutine forwards each chunk to the
// underlying conn once its due time arrives. Delays overlap rather than
// accumulate, so N in-flight writes each see ~d, not N*d.
type delayConn struct {
	net.Conn
	d      time.Duration
	q      chan delayChunk
	closed chan struct{}
	once   sync.Once

	emu  sync.Mutex
	werr error
}

type delayChunk struct {
	due time.Time
	p   []byte
}

func newDelayConn(c net.Conn, d time.Duration) *delayConn {
	dc := &delayConn{Conn: c, d: d, q: make(chan delayChunk, 4096), closed: make(chan struct{})}
	go dc.deliver()
	return dc
}

func (dc *delayConn) deliver() {
	for {
		select {
		case <-dc.closed:
			return
		case ch := <-dc.q:
			if wait := time.Until(ch.due); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := dc.Conn.Write(ch.p); err != nil {
				dc.emu.Lock()
				dc.werr = err
				dc.emu.Unlock()
				return
			}
		}
	}
}

func (dc *delayConn) Write(p []byte) (int, error) {
	dc.emu.Lock()
	err := dc.werr
	dc.emu.Unlock()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	select {
	case dc.q <- delayChunk{due: time.Now().Add(dc.d), p: buf}:
		return len(p), nil
	case <-dc.closed:
		return 0, net.ErrClosed
	}
}

func (dc *delayConn) Close() error {
	dc.once.Do(func() { close(dc.closed) })
	return dc.Conn.Close()
}

func delayDialer(d time.Duration) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return newDelayConn(c, d), nil
	}
}

// benchNetFixture is netFixture with more query slots and a shed limit
// high enough that pipelined benchmarks measure throughput, not admission.
func benchNetFixture(b *testing.B) *NetServer {
	b.Helper()
	cfg := testConfig(0)
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	qs := NewQueryServer(s)
	qs.Start(8)
	b.Cleanup(qs.Stop)
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{ShedLimit: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

func benchDialOpts() DialOptions {
	return DialOptions{
		Timeout: 30 * time.Second,
		Dialer:  delayDialer(benchRTT / 2),
	}
}

func reportQPS(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkNetQueryBinary: one query in flight at a time — the baseline
// the pipelining and batching wins are read against.
func BenchmarkNetQueryBinary(b *testing.B) {
	srv := benchNetFixture(b)
	c, err := DialMuxOpts(srv.Addr().String(), benchDialOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Interval(0, 1000, 1050); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportQPS(b)
}

// BenchmarkNetQueryBinaryPipelined keeps many requests in flight over ONE
// connection — the headline number the framing exists for.
func BenchmarkNetQueryBinaryPipelined(b *testing.B) {
	srv := benchNetFixture(b)
	c, err := DialMuxOpts(srv.Addr().String(), benchDialOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Interval(0, 1000, 1050); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportQPS(b)
	if got := srv.connections.Load(); got != 1 {
		b.Fatalf("pipelined benchmark used %d connections, want 1", got)
	}
}

// BenchmarkNetQueryBinaryPipelinedTraced is the pipelined benchmark with
// tracing sampling EVERY query on both sides — the worst-case tracing
// overhead. Compare against BenchmarkNetQueryBinaryPipelined (sampling
// off).
func BenchmarkNetQueryBinaryPipelinedTraced(b *testing.B) {
	srv := benchNetFixture(b)
	srv.qs.sys.EnableTracing(TraceOptions{SampleEvery: 1})
	opts := benchDialOpts()
	opts.Tracer = tracing.New(tracing.Config{SampleEvery: 1})
	c, err := DialMuxOpts(srv.Addr().String(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Interval(0, 1000, 1050); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportQPS(b)
}

// BenchmarkNetQueryBinaryBatch amortizes framing over 64 queries per
// frame; b.N counts individual queries so queries/sec stays comparable.
func BenchmarkNetQueryBinaryBatch(b *testing.B) {
	srv := benchNetFixture(b)
	c, err := DialMuxOpts(srv.Addr().String(), benchDialOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const batchSize = 64
	qs := make([]BatchQuery, batchSize)
	for i := range qs {
		qs[i] = BatchQuery{Kind: IntervalQuery, Port: 0, Start: 1000, End: 1050}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batchSize {
		n := batchSize
		if rem := b.N - done; rem < n {
			n = rem
		}
		if _, err := c.Batch(qs[:n]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportQPS(b)
}
