// Package metrics is a stdlib-only instrumentation layer: atomic counters,
// gauges, and log-scale histograms collected in a named registry, with
// snapshot and delta support so callers can measure any interval of activity
// (the paper's experiments reason entirely from such per-site counters —
// messages sent, objects dereferenced, filter steps executed).
//
// All instruments are safe for concurrent use. Every method is also nil-safe:
// a nil *Registry hands out nil instruments whose operations are no-ops, so
// instrumented code needs no "is metrics enabled?" branches on hot paths —
// wiring a registry in (or not) at construction time is the whole switch.
package metrics

import (
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value (queue depths, live contexts).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the number of histogram buckets: bucket i counts values v
// with bits.Len64(v) == i, i.e. bucket 0 holds exactly 0 and bucket i (i>0)
// holds [2^(i-1), 2^i). The last bucket therefore absorbs everything from
// 2^63 up — overflow can never be dropped.
const NumBuckets = 65

// Histogram is a log2-scale histogram for latencies (microseconds) and
// sizes. Log-scale buckets keep it constant-size and allocation-free while
// still separating microseconds from milliseconds from seconds.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for v.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketBound returns the inclusive upper bound of bucket i (0 for bucket 0,
// 2^i - 1 otherwise; the last bucket's bound is MaxUint64).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records d in microseconds (negative durations count as 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.Observe(uint64(us))
}

// snapshot captures the histogram's current state. Concurrent Observes may
// land between the field reads; each individual read is atomic and the
// drift is bounded by in-flight updates.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: BucketBound(i), N: n})
		}
	}
	return s
}

// Registry is a named collection of instruments. Lookups get-or-create, so
// independent subsystems can share one registry without coordination.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value. Zero-valued
// instruments are included (they exist, they just haven't moved), so a
// snapshot names the full instrument set. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Unregistered walks the struct v points to, nested struct values included,
// and returns the path of every *Counter, *Gauge and *Histogram field that r
// did not hand out. An instrument built by hand counts into an object no
// snapshot shows, so the debug endpoint and hfstat would report that its
// event never happened; a subsystem's tests call this on the struct that
// holds its instruments.
func (r *Registry) Unregistered(v any) []string {
	own := map[uintptr]bool{}
	r.mu.Lock()
	for _, c := range r.counters {
		own[reflect.ValueOf(c).Pointer()] = true
	}
	for _, g := range r.gauges {
		own[reflect.ValueOf(g).Pointer()] = true
	}
	for _, h := range r.hists {
		own[reflect.ValueOf(h).Pointer()] = true
	}
	r.mu.Unlock()
	var out []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Type() {
			case counterType, gaugeType, histType:
				if !own[f.Pointer()] {
					out = append(out, name)
				}
			default:
				if f.Kind() == reflect.Struct {
					walk(f, name+".")
				}
			}
		}
	}
	walk(reflect.ValueOf(v).Elem(), "")
	return out
}

var (
	counterType = reflect.TypeOf((*Counter)(nil))
	gaugeType   = reflect.TypeOf((*Gauge)(nil))
	histType    = reflect.TypeOf((*Histogram)(nil))
)
