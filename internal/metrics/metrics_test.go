package metrics

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every operation on nil instruments and a nil registry must
// be a no-op, because instrumented code calls them unconditionally.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Load() != 0 {
		t.Fatalf("nil counter Load = %d", c.Load())
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Fatalf("nil gauge Load = %d", g.Load())
	}
	var h *Histogram
	h.Observe(10)
	h.ObserveDuration(time.Second)

	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if names := r.CounterNames(); names != nil {
		t.Fatalf("nil registry CounterNames = %v", names)
	}
}

// TestConcurrentHammer drives counters, gauges, and histograms from many
// goroutines (the -race build is the real assertion) and checks the totals.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("depth")
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("hits").Load(); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("depth").Load(); got != 0 {
		t.Fatalf("depth = %d, want 0", got)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != workers*perWorker {
		t.Fatalf("lat count = %d, want %d", hs.Count, workers*perWorker)
	}
	wantSum := uint64(workers) * uint64(perWorker*(perWorker-1)/2)
	if hs.Sum != wantSum {
		t.Fatalf("lat sum = %d, want %d", hs.Sum, wantSum)
	}
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != hs.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, hs.Count)
	}
}

// TestGetOrCreate: the same name always yields the same instrument.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("b")
	if got := r.CounterNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("CounterNames = %v", got)
	}
}

// TestHistogramBuckets pins the bucket-boundary behaviour at the edges:
// zero, powers of two on both sides of each boundary, and MaxUint64.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v  uint64
		le uint64 // expected bucket bound the value lands under
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{1023, 1023},
		{1024, 2047},
		{math.MaxUint64 / 2, math.MaxUint64/2 + 1 - 1}, // 2^63-1 -> bucket 63
		{math.MaxUint64/2 + 1, math.MaxUint64},         // 2^63 -> last bucket
		{math.MaxUint64, math.MaxUint64},
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.v)
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d buckets, want 1", tc.v, len(s.Buckets))
		}
		if s.Buckets[0].Le != tc.le {
			t.Errorf("Observe(%d) landed under le=%d, want le=%d", tc.v, s.Buckets[0].Le, tc.le)
		}
		if s.Buckets[0].Le < tc.v {
			t.Errorf("Observe(%d): bucket bound %d below value", tc.v, s.Buckets[0].Le)
		}
	}

	// Negative durations clamp to zero rather than wrapping around.
	h := &Histogram{}
	h.ObserveDuration(-time.Second)
	if s := h.snapshot(); s.Sum != 0 || s.Count != 1 || s.Buckets[0].Le != 0 {
		t.Fatalf("negative duration: %+v", s)
	}
}

// TestSnapshotDeltaAlgebra checks the interval identity
// delta(a,c) == delta(a,b) + delta(b,c) for snapshots a, b, c in order,
// including histograms.
func TestSnapshotDeltaAlgebra(t *testing.T) {
	r := NewRegistry()
	burn := func(n int) {
		for i := 0; i < n; i++ {
			r.Counter("msgs").Inc()
			r.Gauge("live").Add(1)
			r.Histogram("lat").Observe(uint64(i * i))
		}
	}
	burn(5)
	a := r.Snapshot()
	burn(17)
	b := r.Snapshot()
	burn(3)
	r.Gauge("live").Add(-10)
	r.Counter("other").Add(2)
	c := r.Snapshot()

	ac := c.Delta(a)
	sum := b.Delta(a).Add(c.Delta(b))
	if !reflect.DeepEqual(ac, sum) {
		t.Fatalf("delta(a,c) != delta(a,b)+delta(b,c)\n ac: %+v\nsum: %+v", ac, sum)
	}
	if ac.Counters["msgs"] != 20 {
		t.Fatalf("msgs delta = %d, want 20", ac.Counters["msgs"])
	}
	if ac.Counters["other"] != 2 {
		t.Fatalf("other delta = %d, want 2", ac.Counters["other"])
	}
	if ac.Gauges["live"] != 10 { // +20 increments, -10
		t.Fatalf("live delta = %d, want 10", ac.Gauges["live"])
	}
	if ac.Histograms["lat"].Count != 20 {
		t.Fatalf("lat delta count = %d, want 20", ac.Histograms["lat"].Count)
	}

	// Self-delta is empty: no activity between identical snapshots.
	empty := c.Delta(c)
	if len(empty.Counters)+len(empty.Gauges)+len(empty.Histograms) != 0 {
		t.Fatalf("self delta not empty: %+v", empty)
	}
}

// TestQuantile sanity-checks the bucket-bound quantile estimate.
func TestQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket le=15
	}
	h.Observe(100000) // bucket le=131071
	s := h.snapshot()
	if q := s.Quantile(0.5); q != 15 {
		t.Fatalf("p50 = %d, want 15", q)
	}
	if q := s.Quantile(1); q != 131071 {
		t.Fatalf("p100 = %d, want 131071", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	if m := s.Mean(); m < 10 || m > 1100 {
		t.Fatalf("mean = %v out of range", m)
	}
}

// TestQuantileNearestRank: with few samples the upper quantiles must reach
// the max observation (rank rounds up, not down).
func TestQuantileNearestRank(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{3, 9, 15, 200} {
		h.Observe(v)
	}
	s := h.snapshot()
	if q := s.Quantile(0.99); q != 255 {
		t.Fatalf("p99 = %d, want 255 (bucket bound covering 200)", q)
	}
	if q := s.Quantile(0.5); q != 15 {
		t.Fatalf("p50 = %d, want 15", q)
	}
}

func TestUnregisteredFindsHandBuiltInstruments(t *testing.T) {
	reg := NewRegistry()
	var held struct {
		Hits  *Counter
		Depth *Gauge
		Inner struct{ Lat, Stray *Histogram }
		Loose *Counter
		Name  string
	}
	held.Hits = reg.Counter("hits")
	held.Depth = reg.Gauge("depth")
	held.Inner.Lat = reg.Histogram("lat")
	held.Inner.Stray = &Histogram{}
	held.Loose = &Counter{}
	got := reg.Unregistered(&held)
	if want := []string{"Inner.Stray", "Loose"}; !slices.Equal(got, want) {
		t.Errorf("Unregistered = %q, want %q", got, want)
	}
}
