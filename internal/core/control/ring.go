package control

import (
	"sync/atomic"
	"time"

	"printqueue/internal/pktrec"
)

// packetBatch is a run of dequeued packets bound for one shard worker.
// Packets are stored by value so the producer never allocates per packet
// and batches recycle cleanly through the pipeline's pool. A batch ends at
// the first packet whose decision takes a freeze (Pipeline.Ingest), so it
// carries at most one such decision: cut, the decision of its last packet
// (the zero decision when the batch ended full or was flushed).
type packetBatch struct {
	pkts []pktrec.Packet
	cut  decision
}

// spscRing is a bounded single-producer/single-consumer ring of packet
// batches — the software stand-in for the per-pipe packet queues feeding
// the Tofino's egress pipelines. The producer is the ingestion goroutine
// (Pipeline.Ingest); the consumer is the shard's worker. head/tail are
// monotonically increasing; the ring is full when tail-head == len(buf).
//
// Both sides park on capacity-1 wake-token channels rather than spinning:
// a token deposited after every push/pop guarantees a blocked peer observes
// the state change, and the single-producer/single-consumer discipline
// makes the lock-free fast path correct.
type spscRing struct {
	buf      []*packetBatch
	mask     uint64
	head     atomic.Uint64 // next slot to pop (consumer-owned)
	tail     atomic.Uint64 // next slot to push (producer-owned)
	closed   atomic.Bool
	notEmpty chan struct{} // wake token for a parked consumer
	notFull  chan struct{} // wake token for a parked producer
}

// newSPSCRing builds a ring holding at least depth batches (rounded up to a
// power of two).
func newSPSCRing(depth int) *spscRing {
	n := 1
	for n < depth {
		n <<= 1
	}
	return &spscRing{
		buf:      make([]*packetBatch, n),
		mask:     uint64(n - 1),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

// wake deposits a token without blocking; a token already present is enough.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// push enqueues a batch, blocking while the ring is full (backpressure onto
// the producer). It returns ok=false if the ring was closed, and the
// nanoseconds the producer spent blocked — 0 on the uncontended fast path,
// where no clock is read.
func (r *spscRing) push(b *packetBatch) (waitedNs int64, ok bool) {
	var blockedAt time.Time
	for {
		if r.closed.Load() {
			return waitedNs, false
		}
		t, h := r.tail.Load(), r.head.Load()
		if t-h < uint64(len(r.buf)) {
			r.buf[t&r.mask] = b
			r.tail.Store(t + 1)
			wake(r.notEmpty)
			if !blockedAt.IsZero() {
				waitedNs = time.Since(blockedAt).Nanoseconds()
			}
			return waitedNs, true
		}
		if blockedAt.IsZero() {
			blockedAt = time.Now()
		}
		<-r.notFull
	}
}

// len returns the number of batches currently queued. Racy by nature (both
// ends keep moving); good enough for an occupancy gauge.
func (r *spscRing) len() int64 { return int64(r.tail.Load() - r.head.Load()) }

// pop dequeues the next batch, blocking while the ring is empty. It returns
// ok=false once the ring is closed and drained.
func (r *spscRing) pop() (*packetBatch, bool) {
	for {
		h, t := r.head.Load(), r.tail.Load()
		if h != t {
			b := r.buf[h&r.mask]
			r.buf[h&r.mask] = nil
			r.head.Store(h + 1)
			wake(r.notFull)
			return b, true
		}
		if r.closed.Load() {
			// Recheck: a push may have raced the close.
			if r.head.Load() == r.tail.Load() {
				return nil, false
			}
			continue
		}
		<-r.notEmpty
	}
}

// close marks the ring closed and wakes both sides. Only the producer may
// call it; batches already enqueued are still drained by pop.
func (r *spscRing) close() {
	r.closed.Store(true)
	wake(r.notEmpty)
	wake(r.notFull)
}
