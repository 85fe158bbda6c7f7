package fleet

// BenchmarkFleetQuery measures a collector fan-out over N=8 simulated
// switches under an injected per-leg RTT. Loopback has ~0 RTT, so without
// the delay every fan-out degenerates to a CPU benchmark; with it the
// figure of merit is how close one fan-out's wall time stays to a single
// hop's round trip (the legs overlap under the worker pool) rather than
// the sum over hops.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/pktrec"
)

func benchPkt(hop, i int, ts uint64) *pktrec.Packet {
	return &pktrec.Packet{
		Flow: fleetKey(byte(hop), byte(i%3)),
		Port: 0,
		Meta: pktrec.Metadata{EnqTimestamp: ts - 40, DeqTimedelta: 40, EnqQdepth: 8 + i%9},
	}
}

// benchRTT is the injected round trip per leg (one-way delay RTT/2 on
// client writes only, so replies return after ~RTT/2; the asymmetry is
// identical across legs and irrelevant to the overlap being measured).
const benchRTT = 2 * time.Millisecond

// delayConn defers writes by a fixed propagation delay: Write returns
// immediately and a deliverer goroutine forwards chunks when due, so
// concurrent in-flight writes overlap rather than serialize.
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

// benchSwitch mirrors the test fixture without testing.T cleanup plumbing.
func benchSwitch(b *testing.B, hop int) (addr string, shutdown func()) {
	b.Helper()
	sys, err := control.New(fleetConfig())
	if err != nil {
		b.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		sys.OnDequeue(benchPkt(hop, i, ts))
	}
	sys.Finalize(ts + 1)
	qs := control.NewQueryServer(sys)
	qs.Start(4)
	srv, err := control.ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		b.Fatal(err)
	}
	return srv.Addr().String(), func() {
		srv.Close()
		qs.Stop()
		sys.Close()
	}
}

func BenchmarkFleetQuery(b *testing.B) {
	const nSwitches = 8
	c := New(Options{
		Workers:    nSwitches,
		HopTimeout: 10 * time.Second,
		Dial:       control.DialOptions{Dialer: delayDialer(benchRTT / 2)},
	})
	defer c.Close()
	hops := make([]HopRef, nSwitches)
	for i := 0; i < nSwitches; i++ {
		addr, shutdown := benchSwitch(b, i)
		defer shutdown()
		if err := c.Register(SwitchInfo{ID: fmt.Sprintf("sw%d", i), Hop: i, Addr: addr}); err != nil {
			b.Fatal(err)
		}
		hops[i] = HopRef{SwitchID: fmt.Sprintf("sw%d", i), Port: 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := c.QueryPath(hops, 1000, 1700)
		for _, res := range results {
			if res.Err != nil {
				b.Fatalf("hop %s: %v", res.SwitchID, res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchRTT.Nanoseconds()), "rtt-ns/leg")
}

// benchHistSwitch is benchSwitch plus a durable checkpoint history, so a
// mirror can replay it.
func benchHistSwitch(b *testing.B, hop int) (addr string, shutdown func()) {
	b.Helper()
	cfg := fleetConfig()
	cfg.History = &histstore.Options{Dir: b.TempDir()}
	sys, err := control.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		sys.OnDequeue(benchPkt(hop, i, ts))
	}
	sys.Finalize(ts + 1)
	qs := control.NewQueryServer(sys)
	qs.Start(4)
	srv, err := control.ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		b.Fatal(err)
	}
	return srv.Addr().String(), func() {
		srv.Close()
		qs.Stop()
		sys.Close()
	}
}

// BenchmarkFleetQueryMirrored is BenchmarkFleetQuery with checkpoint
// streaming on: the same 8 switches behind the same injected RTT, but
// every hop's interval is answered from the collector's warm local
// replica. The per-query figure should sit orders of magnitude below the
// fan-out benchmark's, because no leg crosses the delayed network.
func BenchmarkFleetQueryMirrored(b *testing.B) {
	const nSwitches = 8
	c := New(Options{
		Workers:    nSwitches,
		HopTimeout: 10 * time.Second,
		Dial:       control.DialOptions{Dialer: delayDialer(benchRTT / 2)},
		Mirror:     true,
		MirrorDir:  b.TempDir(),
		// The bench interval's end (1700) reaches 99ns past the last
		// checkpoint freeze (1601); admit that lag so the mirror serves the
		// exact interval the fan-out benchmark queries.
		MirrorStalenessNs: 200,
	})
	defer c.Close()
	hops := make([]HopRef, nSwitches)
	for i := 0; i < nSwitches; i++ {
		addr, shutdown := benchHistSwitch(b, i)
		defer shutdown()
		if err := c.Register(SwitchInfo{ID: fmt.Sprintf("sw%d", i), Hop: i, Addr: addr}); err != nil {
			b.Fatal(err)
		}
		hops[i] = HopRef{SwitchID: fmt.Sprintf("sw%d", i), Port: 0}
	}
	// Warm every mirror through the feed horizon before timing.
	for i := 0; i < nSwitches; i++ {
		m := c.lookup(fmt.Sprintf("sw%d", i))
		deadline := time.Now().Add(30 * time.Second)
		for {
			if cov, ok := m.mirror.coverage(0); ok && cov.end >= 1601 {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("mirror %d never warmed", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := c.QueryPath(hops, 1000, 1700)
		for _, res := range results {
			if res.Err != nil {
				b.Fatalf("hop %s: %v", res.SwitchID, res.Err)
			}
			if !res.Mirrored {
				b.Fatalf("hop %s fell back to the network mid-benchmark", res.SwitchID)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchRTT.Nanoseconds()), "rtt-ns/leg")
}

// BenchmarkFleetDiagnoseMirrored prices a narrow 3-hop diagnosis served
// from warm mirrors, the paper's per-hop culprit ranking along a path: each
// hop holds 96 flows, and a 4 µs interval sees most of them. "fold" moves
// the interval every iteration, so each hop folds its checkpoints afresh
// (the memo is wiped long before an interval recurs); "memo" repeats one
// interval, so each hop is a memo hit and the ranking is what is left.
func BenchmarkFleetDiagnoseMirrored(b *testing.B) {
	const nHops, nFlows = 3, 96
	c := New(Options{Mirror: true, MirrorDir: b.TempDir()})
	defer c.Close()
	hops := make([]HopRef, nHops)
	var horizon uint64
	for h := 0; h < nHops; h++ {
		cfg := fleetConfig()
		cfg.TW.K = 10
		cfg.History = &histstore.Options{Dir: b.TempDir()}
		sys, err := control.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		ts := uint64(1000)
		for i := 0; i < 20000; i++ {
			ts += 10
			sys.OnDequeue(&pktrec.Packet{
				Flow: fleetKey(byte(h), byte(i*7%nFlows)),
				Port: 0,
				Meta: pktrec.Metadata{EnqTimestamp: ts - 40, DeqTimedelta: 40, EnqQdepth: 8 + i%9},
			})
		}
		sys.Finalize(ts + 1)
		horizon = ts + 1
		qs := control.NewQueryServer(sys)
		qs.Start(2)
		defer qs.Stop()
		srv, err := control.ServeQueries("127.0.0.1:0", qs)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		id := fmt.Sprintf("sw%d", h)
		if err := c.Register(SwitchInfo{ID: id, Hop: h, Addr: srv.Addr().String()}); err != nil {
			b.Fatal(err)
		}
		hops[h] = HopRef{SwitchID: id, Port: 0}
	}
	for h := range hops {
		m := c.lookup(hops[h].SwitchID)
		deadline := time.Now().Add(30 * time.Second)
		for {
			if cov, ok := m.mirror.coverage(0); ok && cov.end >= horizon {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("mirror %d never warmed", h)
			}
			time.Sleep(time.Millisecond)
		}
	}
	diagnose := func(b *testing.B, lo uint64) {
		d, err := c.Diagnose("victim", hops, lo, lo+4000, 10)
		if err != nil {
			b.Fatal(err)
		}
		for _, hd := range d.Hops {
			if hd.Err != nil || !hd.Mirrored || len(hd.Culprits) != 10 {
				b.Fatalf("hop %s: err %v, mirrored %v, %d culprits", hd.SwitchID, hd.Err, hd.Mirrored, len(hd.Culprits))
			}
		}
	}
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			diagnose(b, 2000+uint64(i%150_000))
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			diagnose(b, 100_000)
		}
	})
}
