package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/metrics"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// Four samples: the p99 is the maximum, not the third.
	if got := percentile([]time.Duration{1, 2, 3, 4}, 0.99); got != 4 {
		t.Errorf("p99 of four samples = %d, want 4", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v (ten samples must lie beyond it)", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestScrapedDeltas checks that per-query figures come from the window's
// delta, not from the counters' running totals, and that histogram means use
// the delta's own count and sum.
func TestScrapedDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	add := func(name string, n uint64) { reg.Counter(name).Add(n) }
	// Warm-up traffic that must not show.
	add("site_steps", 1000)
	add("site_derefs_sent", 77)
	reg.Histogram("hf_query_latency_us").Observe(1 << 20)
	reg.Histogram("site_step_us").Observe(999)
	before := reg.Snapshot()

	add("site_steps", 500)
	add("site_objects_processed", 300)
	add("site_marks_skipped", 100)
	add("site_results_added", 30)
	add("site_derefs_sent", 40)
	add("site_deref_entries_sent", 40)
	add("site_local_derefs", 120)
	add("site_results_sent", 20)
	add("site_controls_sent", 30)
	add("site_seeds_sent", 0)
	add("termination_weight_splits", 40)
	add("termination_weight_returns", 50)
	add("transport_frames_sent", 200)
	add("transport_frames_retransmitted", 50)
	add("transport_frames_received", 190)
	add("transport_frames_deduped", 10)
	add("transport_reconnects", 8)
	for i := 0; i < 10; i++ {
		reg.Histogram("hf_query_latency_us").Observe(400)
		reg.Histogram("site_step_us").Observe(7)
	}
	reg.Histogram("hf_plan_compile_us").Observe(30)
	after := reg.Snapshot()

	o := windowObs{
		// Slice rates 4, 5 and 50 q/s: the burst must not move the median.
		Slices: []sliceObs{
			{Queries: 4, Elapsed: time.Second, P50: time.Millisecond, ServerCPU: cpuTimes{User: 8 * time.Millisecond}},
			{Queries: 5, Elapsed: time.Second, P50: 2 * time.Millisecond, ServerCPU: cpuTimes{User: 15 * time.Millisecond, Sys: 10 * time.Millisecond}},
			{Queries: 50, Elapsed: time.Second, P50: 9 * time.Millisecond, ServerCPU: cpuTimes{Sys: 400 * time.Millisecond}},
			{Queries: 0, Elapsed: time.Second},
		},
		Lat:       make([]time.Duration, 10),
		ServerCPU: cpuTimes{User: 30 * time.Millisecond, Sys: 20 * time.Millisecond},
		ClientCPU: cpuTimes{User: 10 * time.Millisecond},
		RSSMB:     12.5,
		Delta:     after.Delta(before),
	}
	pl := scraped(o)
	for name, want := range map[string]float64{
		"site.steps_per_query":           50,
		"site.derefs_sent_per_query":     4,
		"site.local_derefs_per_query":    12,
		"site.remote_deref_share":        40.0 / 300,
		"site.results_msgs_per_query":    2,
		"site.controls_per_query":        3,
		"site.step_busy_us_per_query":    7,
		"site.origin_latency_us_mean":    400,
		"engine.objects_per_query":       30,
		"engine.results_per_query":       3,
		"engine.mark_skip_share":         0.2,
		"plan.compiles_per_query":        0.1,
		"plan.compile_us_per_query":      3,
		"termination.splits_per_query":   4,
		"termination.returns_per_query":  5,
		"transport.frames_per_query":     20,
		"transport.frames_in_per_query":  20,
		"transport.retransmit_share":     0.25,
		"transport.reconnects_per_query": 0.8,
		"transport.dedup_share":          0.05,
		"server.cpu_user_ms_per_query":   3,
		"server.cpu_sys_ms_per_query":    2,
		"client.cpu_ms_per_query":        1,
		"latency_samples":                10,
		"query_tail_pct":                 50,
	} {
		if got, ok := pl[name]; !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	e := endToEnd(o, 1.5)
	for name, want := range map[string]float64{
		"setup_s":                 1.5,
		"queries_per_s":           4.5,
		"query_p50_ms":            2,
		"server_cpu_ms_per_query": 5,
		"msgs_per_query":          (40+20+30+0)/10.0 + 2,
		"server_rss_mb":           12.5,
	} {
		if got, ok := e[name]; !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// An empty window must not divide by zero into NaN shares.
	empty := scraped(windowObs{Lat: make([]time.Duration, 1)})
	for _, name := range []string{"site.remote_deref_share", "engine.mark_skip_share", "transport.dedup_share", "transport.retransmit_share"} {
		if v := empty[name]; v != 0 {
			t.Errorf("%s on an empty delta = %v, want 0", name, v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},   // nested child
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0},  // sticks out past root
		{Name: "a.1", Start: 15, End: 20, Parent: 1}, // grandchild: a's, not root's
		{Name: "a.2", Start: 20, End: 25, Parent: 1}, // adjacent to a.1
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{
		100 - (30 + 20 + 10), // a∪b covers 10..60, c covers 90..100
		30 - 10,
		30, 30, 5, 5, 30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	l := byLayer(spans)
	if l["root"].Count != 1 || l["root"].Total != 100 || l["root"].Self != 40 {
		t.Errorf("byLayer root = %+v", l["root"])
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	q := tr.begin("query", 7)
	h := tr.begin("site.HandleMessage", 7)
	tr.end(h)
	s := tr.begin("site.Step", 7)
	tr.end(s)
	tr.end(q)
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != q || tr.spans[2].Parent != q {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	for _, sp := range tr.spans {
		if sp.End < sp.Start || sp.Query != 7 {
			t.Errorf("bad span %+v", sp)
		}
	}
	// The nil tracer is the spans-off switch.
	var off *tracer
	off.end(off.begin("x", 1))
}

func TestParseProc(t *testing.T) {
	stat := "1234 (hyper filed) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 250 50 0 0 20 0 9 0 100 1000000 200 18446744073709551615"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != 2500*time.Millisecond || got.Sys != 500*time.Millisecond {
		t.Errorf("parseProcStat = %+v, want 2.5s user 0.5s sys", got)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	kb, err := parseVmHWM("Name:\thyperfiled\nVmPeak:\t  9 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n")
	if err != nil || kb != 20480 {
		t.Errorf("parseVmHWM = %d, %v", kb, err)
	}
	if _, err := parseVmHWM("Name: x\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// TestSameSeedSameInputs checks that the seed alone fixes everything the
// servers and the driver see.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads(true) {
		gen := func(seed int64) (*dataset, string) {
			d, err := generate(w, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := writeDataset(d, t.TempDir()); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			return d, d.digest
		}
		d1, g1 := gen(11)
		d2, g2 := gen(11)
		_, g3 := gen(12)
		if g1 != g2 {
			t.Errorf("%s: same seed, different digests", w.Name)
		}
		if g1 == g3 {
			t.Errorf("%s: different seeds, same digest", w.Name)
		}
		if !reflect.DeepEqual(d1.items, d2.items) {
			t.Errorf("%s: same seed, different query lists", w.Name)
		}
		if len(d1.items) != w.Queries {
			t.Errorf("%s: %d queries, want %d", w.Name, len(d1.items), w.Queries)
		}
	}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, _, err := moduleDirs()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkSpecMatchesWorkloads keeps BENCHMARK.json and the workload
// table in step.
func TestBenchmarkSpecMatchesWorkloads(t *testing.T) {
	spec := testSpec(t)
	ws := workloads(false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	spec := testSpec(t)
	mk := func(scale map[string]float64, failed int) *report {
		r := &report{}
		for _, w := range spec.Workloads {
			res := &workloadResult{Workload: w.Name, Attempted: 1000, Failed: failed, EndToEnd: map[string]float64{}}
			for _, d := range spec.EndToEnd {
				v := 100.0
				if s, ok := scale[d.Name]; ok {
					v *= s
				}
				res.EndToEnd[d.Name] = v
			}
			r.Workloads = append(r.Workloads, res)
		}
		return r
	}
	base := mk(nil, 0)
	var out bytes.Buffer
	if err := compareReports(spec, base, mk(nil, 0), &out); err != nil {
		t.Errorf("identical runs: %v", err)
	}
	// Better in both directions is never a regression.
	if err := compareReports(spec, base, mk(map[string]float64{"queries_per_s": 2, "query_p50_ms": 0.5}, 0), &out); err != nil {
		t.Errorf("an improvement was flagged: %v", err)
	}
	for _, d := range spec.EndToEnd {
		factor := 1 + d.Bound + 0.02
		inside := 1 + d.Bound - 0.02
		if d.Better == "higher" {
			factor, inside = 1-d.Bound-0.02, 1-d.Bound+0.02
		}
		if err := compareReports(spec, base, mk(map[string]float64{d.Name: factor}, 0), &out); err == nil || !strings.Contains(err.Error(), d.Name) {
			t.Errorf("%s worse than its bound was not flagged: %v", d.Name, err)
		}
		if err := compareReports(spec, base, mk(map[string]float64{d.Name: inside}, 0), &out); err != nil {
			t.Errorf("%s inside its bound was flagged: %v", d.Name, err)
		}
	}
	if err := compareReports(spec, base, mk(nil, 1), &out); err == nil || !strings.Contains(err.Error(), "failed_share") {
		t.Errorf("a higher failed share was not flagged: %v", err)
	}
	short := mk(nil, 0)
	short.Workloads = short.Workloads[1:]
	if err := compareReports(spec, base, short, &out); err == nil {
		t.Error("a missing workload was not flagged")
	}
}

// TestSmokeEndToEnd boots three real hyperfiled processes per workload over
// tiny datasets and checks that every metric BENCHMARK.json names is
// measured and that every answer matches the oracle.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real server processes")
	}
	spec := testSpec(t)
	dir := t.TempDir()
	bin, err := buildServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{workDir: dir, bin: bin, buildS: 0.5, traceOut: filepath.Join(dir, "spans.jsonl")}
	t.Cleanup(children.killAll)
	for _, w := range workloads(true) {
		res, err := runWorkload(env, w, 3, 300*time.Millisecond, true, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d queries failed: %+v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		if _, err := named(spec.EndToEnd, res.EndToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		pl, err := named(spec.PerLayer, res.PerLayer)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, v := range pl {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v.Value)
			}
		}
		for _, d := range spec.EndToEnd {
			if v := res.EndToEnd[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		if res.PerLayer["failed_share"] != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, res.PerLayer["failed_share"])
		}
	}
	if st, err := os.Stat(env.traceOut); err != nil || st.Size() == 0 {
		t.Errorf("trace-out file not written: %v", err)
	}
}
