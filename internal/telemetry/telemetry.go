// Package telemetry is the self-observability layer of the PrintQueue
// control plane: a lock-free metric registry (atomic counters, gauges, and
// fixed-bucket latency histograms) plus an ops HTTP server exposing the
// registry as Prometheus text exposition, expvar JSON, and pprof.
//
// The record path — Counter.Add, Gauge.Set/Max, Histogram.Observe — is a
// handful of atomic operations with zero allocation, so the sharded
// ingestion pipeline and its snapshot goroutines can be instrumented without
// perturbing the hot paths they measure. Metric identity (name, help,
// labels) is fixed at registration; registration is get-or-create, so a
// component restarted against the same registry (e.g. a second Pipeline on
// one System) reuses its series instead of colliding.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets is the default histogram bucketing for nanosecond
// latencies: decades from 1µs to 10s. Fine enough to separate an in-cache
// register copy from a stalled snapshotter, coarse enough to stay a few
// atomics wide.
var LatencyBuckets = []uint64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Max raises the gauge to n if n is larger — a lock-free high-watermark.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bucket i counts observations v
// with v <= bounds[i] (and > bounds[i-1]); one extra overflow bucket counts
// everything above the last bound (Prometheus le="+Inf"). Observe is
// wait-free and allocation-free.
//
// Each bucket additionally keeps one exemplar: the trace id and value of
// the last traced observation that landed there, linking the latency
// distribution back to a concrete trace in the trace ring. Exemplars are
// exposed only in the OpenMetrics rendition (WriteOpenMetrics); the
// default Prometheus 0.0.4 output is unchanged.
type Histogram struct {
	bounds []uint64
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	sum    atomic.Int64
	ex     []exemplarSlot // len(bounds)+1, last traced observation per bucket
}

// exemplarSlot records the most recent traced observation in one bucket.
// The id and value are stored with two independent atomics, so a reader
// racing two writers may pair an id with the other writer's value — an
// acceptable imprecision for a best-effort debugging pointer, in exchange
// for keeping the record path wait-free and allocation-free.
type exemplarSlot struct {
	id  atomic.Uint64
	val atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(v))
}

// ObserveEx records one value, stamping the bucket's exemplar with the
// given trace id when it is nonzero. A zero trace id (untraced
// observation) is exactly Observe.
func (h *Histogram) ObserveEx(v, traceID uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(v))
	if traceID != 0 {
		h.ex[i].id.Store(traceID)
		h.ex[i].val.Store(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// metricType discriminates the exposition format of a family.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric: a value plus its label set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name (and therefore help text
// and type), as the exposition format requires.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series          // insertion order
	byKey  map[string]*series // rendered-label key -> series
}

// Registry holds a set of metric families. Registration methods are
// get-or-create and safe for concurrent use; the returned metric pointers
// are stable for the life of the registry.
type Registry struct {
	mu       sync.Mutex
	families []*family // insertion order, for stable exposition
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup finds or creates the series for (name, labels), creating the
// metric value under the registry lock, and enforces that a name keeps one
// type. Mixing types under one name is a programming error and panics, like
// expvar's duplicate Publish. bounds are only used for histogramType, and
// only on first creation.
func (r *Registry) lookup(name, help string, typ metricType, bounds []uint64, labels []Label) *series {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, fam.typ, typ))
	}
	sr := fam.byKey[key]
	if sr == nil {
		sr = &series{labels: append([]Label(nil), labels...)}
		switch typ {
		case counterType:
			sr.c = &Counter{}
		case gaugeType:
			sr.g = &Gauge{}
		case histogramType:
			b := append([]uint64(nil), bounds...)
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			sr.h = &Histogram{
				bounds: b,
				counts: make([]atomic.Int64, len(b)+1),
				ex:     make([]exemplarSlot, len(b)+1),
			}
		}
		fam.byKey[key] = sr
		fam.series = append(fam.series, sr)
	}
	return sr
}

// Counter returns the counter registered under name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, counterType, nil, labels).c
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, gaugeType, nil, labels).g
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the given bucket bounds (ascending upper bounds;
// an overflow bucket is implicit) on first use. An existing series keeps
// its original bounds.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	return r.lookup(name, help, histogramType, bounds, labels).h
}

// Names returns every registered metric family name, sorted. Tests use it
// to audit that each registered metric actually appears in the exposition.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for _, fam := range r.families {
		names = append(names, fam.name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// labelKey renders labels into a map key. Label order is significant for
// identity, matching how instrumentation sites register them.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}
