package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestRunLoadSmoke runs a miniature open-loop sweep — including a point at
// twice the calibrated capacity under chaos — and holds it to the overload
// gates: every arrival accounted for, zero hangs, zero untyped errors,
// latencies inside the deadline envelope.
func TestRunLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load harness")
	}
	cfg := DefaultLoad()
	cfg.Calibration = 8
	cfg.Queries = 24
	cfg.Multipliers = []float64{1, 2}
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(cfg); err != nil {
		t.Fatal(err)
	}
	if res.CapacityQPS <= 0 {
		t.Fatalf("calibrated capacity %v qps", res.CapacityQPS)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d load points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Offered != cfg.Queries {
			t.Errorf("x%.1f: offered %d, want %d", p.Multiplier, p.Offered, cfg.Queries)
		}
		if p.OK+p.Partial == 0 {
			t.Errorf("x%.1f: nothing was answered", p.Multiplier)
		}
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back LoadResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.CapacityQPS != res.CapacityQPS || len(back.Points) != len(res.Points) {
		t.Error("JSON round-trip lost fields")
	}
}

// TestLoadCheckRejectsBadRuns: the gate must actually gate.
func TestLoadCheckRejectsBadRuns(t *testing.T) {
	cfg := DefaultLoad()
	good := LoadPoint{Multiplier: 1, Offered: 4, OK: 4}
	for _, tc := range []struct {
		name   string
		mutate func(*LoadPoint)
	}{
		{"hang", func(p *LoadPoint) { p.Hangs = 1; p.OK = 3 }},
		{"error", func(p *LoadPoint) { p.Errors = 1; p.OK = 3 }},
		{"unaccounted", func(p *LoadPoint) { p.OK = 3 }},
		{"escaped deadline", func(p *LoadPoint) {
			p.P99US = uint64((cfg.QueryDeadline + cfg.Timeout).Microseconds()) + 1
		}},
	} {
		p := good
		tc.mutate(&p)
		r := &LoadResult{Points: []LoadPoint{p}}
		if err := r.Check(cfg); err == nil {
			t.Errorf("%s: Check passed a bad run", tc.name)
		}
	}
	if err := (&LoadResult{Points: []LoadPoint{good}}).Check(cfg); err != nil {
		t.Errorf("Check failed a good run: %v", err)
	}
}

// TestDefaultLoadEngagesOverload: the defaults must be a configuration where
// the knobs can actually bite (a bound, a queue, a deadline, a past-capacity
// point) — otherwise the committed BENCH_load.json demonstrates nothing.
func TestDefaultLoadEngagesOverload(t *testing.T) {
	cfg := DefaultLoad()
	if cfg.MaxInflight <= 0 || cfg.AdmissionQueue <= 0 {
		t.Error("defaults leave admission control off")
	}
	if cfg.QueryDeadline <= 0 || cfg.QueryDeadline >= cfg.Timeout {
		t.Errorf("deadline %v must be positive and inside the client timeout %v", cfg.QueryDeadline, cfg.Timeout)
	}
	over := false
	for _, m := range cfg.Multipliers {
		if m > 1 {
			over = true
		}
	}
	if !over {
		t.Error("defaults never push past capacity")
	}
	if !cfg.Chaos {
		t.Error("defaults skip chaos; the acceptance regime is overload under chaos")
	}
}

// TestLoadLatenciesAreExact: a load point's quantiles are sample latencies
// by nearest rank, not histogram bucket bounds, and its mean is exact.
func TestLoadLatenciesAreExact(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- { // 1000µs..100000µs, out of order
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	var pt LoadPoint
	pt.noteLatencies(lat)
	if pt.P50US != 50_000 || pt.P95US != 95_000 || pt.P99US != 99_000 || pt.MeanUS != 50_500 {
		t.Errorf("p50 %d p95 %d p99 %d mean %v µs, want 50000 95000 99000 50500", pt.P50US, pt.P95US, pt.P99US, pt.MeanUS)
	}
	pt = LoadPoint{}
	pt.noteLatencies([]time.Duration{3 * time.Microsecond})
	if pt.P50US != 3 || pt.P99US != 3 || pt.MeanUS != 3 {
		t.Errorf("one sample of 3µs: %+v", pt)
	}
}
