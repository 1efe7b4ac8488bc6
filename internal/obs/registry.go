// Package obs is a dependency-free observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms with Prometheus text
// exposition) and a per-query execution trace (one span per compiled
// operator, one edge per inter-subject transfer).
//
// The package deliberately knows nothing about SQL, plans, or providers:
// spans are keyed by opaque references (any), so exec, distsim, and engine
// can attach their own node types without obs importing them.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// ---------------------------------------------------------------------------
// Counter

// counterShards is the number of independent cells a Counter stripes its
// value across. Goroutines on different stacks land on different cells,
// so concurrent Add calls do not bounce one cache line between cores.
const counterShards = 16

// shard is a single counter cell padded to a cache line so neighboring
// shards never share one.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// unusable; obtain counters from a Registry.
type Counter struct {
	shards [counterShards]shard
}

// Add increments the counter by n. The shard is picked from the address of
// a stack local: goroutines have distinct stacks, so concurrent writers
// spread across cells without any per-goroutine registration.
func (c *Counter) Add(n uint64) {
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) % counterShards
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total across all shards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down. The zero value is unusable;
// obtain gauges from a Registry.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed buckets. Buckets are cumulative
// at exposition time, matching Prometheus semantics. The zero value is
// unusable; obtain histograms from a Registry.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// DurationBuckets is a general-purpose set of latency bounds in seconds,
// from 10µs to 10s.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ---------------------------------------------------------------------------
// Registry

// metricKind distinguishes exposition formats.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance of a metric family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc collectors
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them. Registration takes a
// lock; reads of registered counters/gauges are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup finds or creates the family, checking kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type", name))
	}
	return f
}

// find returns the series with exactly these labels, or nil.
func (f *family) find(labels []Label) *series {
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	return nil
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		return s.counter
	}
	s := &series{labels: labels, counter: &Counter{}}
	f.series = append(f.series, s)
	return s.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		return s.gauge
	}
	s := &series{labels: labels, gauge: &Gauge{}}
	f.series = append(f.series, s)
	return s.gauge
}

// Histogram registers (or returns the existing) histogram series with the
// given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	if s := f.find(labels); s != nil {
		return s.hist
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	s := &series{labels: labels, hist: h}
	f.series = append(f.series, s)
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing package-level atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		s.fn = fn
		return
	}
	f.series = append(f.series, &series{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		s.fn = fn
		return
	}
	f.series = append(f.series, &series{labels: labels, fn: fn})
}

// value reads the current value of a scalar series.
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	}
	return 0
}

// ---------------------------------------------------------------------------
// Exposition

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typeName(f.kind))
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writeHistogram(w, f.name, s)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels, "", ""), formatValue(s.value()))
		}
	}
	return nil
}

func typeName(k metricKind) string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "counter"
}

func writeHistogram(w io.Writer, name string, s *series) {
	bounds, counts, sum, count := histState(s)
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		le := strconv.FormatFloat(b, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, "le", le), cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels, "", ""), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels, "", ""), count)
}

// histState reads a histogram series' buckets.
func histState(s *series) (bounds []float64, counts []uint64, sum float64, count uint64) {
	h := s.hist
	counts = make([]uint64, len(h.bounds)+1)
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts, h.Sum(), h.Count()
}

// renderLabels renders {k="v",...}, optionally appending one extra label
// (used for histogram le). Returns "" when there are no labels at all.
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------------
// Snapshot

// Snapshot returns a flat name→value view of every scalar series (counters
// and gauges; histograms contribute _sum and _count entries). Labeled
// series render their labels into the key: name{k=v,...}.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range r.families {
		for _, s := range f.series {
			key := f.name + snapshotLabels(s.labels)
			if f.kind == kindHistogram {
				_, _, sum, count := histState(s)
				out[f.name+"_sum"+snapshotLabels(s.labels)] = sum
				out[f.name+"_count"+snapshotLabels(s.labels)] = float64(count)
				continue
			}
			out[key] = s.value()
		}
	}
	return out
}

func snapshotLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// GoRuntimeCollectors registers standard process gauges (goroutines,
// GOMAXPROCS, heap in use) on the registry.
func (r *Registry) GoRuntimeCollectors() {
	r.GaugeFunc("go_goroutines", "Number of goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("go_gomaxprocs", "GOMAXPROCS.", func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	r.GaugeFunc("go_heap_inuse_bytes", "Bytes in in-use heap spans.", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapInuse)
	})
}
