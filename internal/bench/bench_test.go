package bench

import (
	"math"
	"sync"
	"testing"

	"hyperfile/internal/cluster"
)

// testCfg keeps harness tests quick while preserving the shapes: fewer
// randomized queries per point than the paper's 100, same dataset size.
func testCfg() Config {
	cfg := Default()
	cfg.Queries = 5
	return cfg
}

// reports caches experiment runs: several tests assert different properties
// of the same experiment.
var (
	reportMu    sync.Mutex
	reportCache = map[string]*Report{}
)

func report(t *testing.T, id string) *Report {
	t.Helper()
	reportMu.Lock()
	defer reportMu.Unlock()
	if r, ok := reportCache[id]; ok {
		return r
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	r, err := e.Run(testCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	reportCache[id] = r
	return r
}

func near(t *testing.T, r *Report, key string, want, tol float64) {
	t.Helper()
	got, ok := r.Values[key]
	if !ok {
		t.Fatalf("%s: missing value %q (have %v)", r.ID, key, r.Values)
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: %s = %.3f, want %.3f +- %.3f", r.ID, key, got, want, tol)
	}
}

func less(t *testing.T, r *Report, a, b string) {
	t.Helper()
	va, vb := r.Values[a], r.Values[b]
	if !(va < vb) {
		t.Errorf("%s: expected %s (%.3f) < %s (%.3f)", r.ID, a, va, b, vb)
	}
}

func TestE1BaseCostsMatchPaper(t *testing.T) {
	r := report(t, "E1")
	near(t, r, "per_object_ms", 8, 1)   // paper: ~8 ms
	near(t, r, "per_result_ms", 20, 2)  // paper: ~20 ms
	near(t, r, "per_remote_ms", 50, 15) // paper: ~50 ms
	if r.Values["deref_bytes"] > 120 {
		t.Errorf("deref message = %.0f bytes; paper's were ~40", r.Values["deref_bytes"])
	}
}

func TestE2SingleSiteMatchesPaper(t *testing.T) {
	r := report(t, "E2")
	// Paper: 2.7 s for both pointer structures.
	near(t, r, "single_Tree", 2.7, 0.3)
	near(t, r, "single_Chain", 2.7, 0.3)
}

func TestE3ChainWorstCase(t *testing.T) {
	r := report(t, "E3")
	e2 := report(t, "E2")
	// Paper: ~15 s on both machine counts, vs 2.7 s single site.
	for _, k := range []string{"chain_m3", "chain_m9"} {
		if r.Values[k] < 4*e2.Values["single_Chain"] {
			t.Errorf("%s = %.2f s: chains must be dramatically slower than single site (%.2f s)",
				k, r.Values[k], e2.Values["single_Chain"])
		}
	}
	// Machine count barely matters for a serial chain.
	ratio := r.Values["chain_m3"] / r.Values["chain_m9"]
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("chain m3/m9 = %.2f, want ~1", ratio)
	}
}

func TestE4TreeParallelism(t *testing.T) {
	r := report(t, "E4")
	e2 := report(t, "E2")
	// Paper: 1.5 s (3 machines) and 1.0 s (9) vs 2.7 s single site.
	if !(r.Values["tree_m3"] < e2.Values["single_Tree"]) {
		t.Errorf("tree_m3 (%.2f) should beat single site (%.2f)", r.Values["tree_m3"], e2.Values["single_Tree"])
	}
	less(t, r, "tree_m9", "tree_m3")
	near(t, r, "tree_m3", 1.5, 0.4)
	near(t, r, "tree_m9", 1.0, 0.5)
}

func TestE5Figure4Shape(t *testing.T) {
	r := report(t, "E5")
	// Left edge slowest on both machine counts.
	less(t, r, "p95_m3", "p05_m3")
	less(t, r, "p95_m9", "p05_m9")
	// Monotone-ish: 80%-local beats 20%-local.
	less(t, r, "p80_m3", "p20_m3")
	less(t, r, "p80_m9", "p20_m9")
	// More machines tolerate remote pointers better (left half of figure).
	for _, p := range []string{"p05", "p20", "p35", "p50"} {
		less(t, r, p+"_m9", p+"_m3")
	}
	// "The system operates best with at least 80% local references": the
	// fastest point of each series is at p >= .80.
	for _, m := range []string{"m3", "m9"} {
		best := math.Inf(1)
		bestP := ""
		for _, p := range []string{"p05", "p20", "p35", "p50", "p65", "p80", "p95"} {
			if v := r.Values[p+"_"+m]; v < best {
				best, bestP = v, p
			}
		}
		if bestP != "p80" && bestP != "p95" {
			t.Errorf("%s: fastest locality class = %s, want >= p80", m, bestP)
		}
	}
}

func TestE6SelectivityCrossover(t *testing.T) {
	r := report(t, "E6")
	// Selective queries: distributed (3 machines) beats single site.
	less(t, r, "sel10_m3", "sel10_m1")
	// Select-all: single site beats distributed — "sending results is
	// expensive in our system".
	less(t, r, "selall_m1", "selall_m3")
	less(t, r, "selall_m1", "selall_m9")
	// And select-all costs several times the selective query everywhere.
	for _, m := range []string{"m1", "m3", "m9"} {
		if r.Values["selall_"+m] < 2*r.Values["sel10_"+m] {
			t.Errorf("select-all (%0.2f) should dwarf 10%% selectivity (%0.2f) on %s",
				r.Values["selall_"+m], r.Values["sel10_"+m], m)
		}
	}
}

func TestE7ScalingShape(t *testing.T) {
	r := report(t, "E7")
	// Paper: halving the data didn't quite halve the time.
	if r.Values["ratio"] <= 1.4 || r.Values["ratio"] >= 2.0 {
		t.Errorf("full/half ratio = %.2f, want in (1.4, 2.0)", r.Values["ratio"])
	}
}

func TestE8DistributedSetWins(t *testing.T) {
	r := report(t, "E8")
	less(t, r, "refined", "ship")
	if r.Values["followup_results"] <= 0 {
		t.Errorf("seeded follow-up returned nothing")
	}
}

func TestE9MessageCostGap(t *testing.T) {
	r := report(t, "E9")
	if r.Values["ratio"] < 100 {
		t.Errorf("file-server bytes only %.0fx HyperFile's; paper argues orders of magnitude", r.Values["ratio"])
	}
	if r.Values["deref_bytes"] > 120 {
		t.Errorf("deref bytes = %.0f", r.Values["deref_bytes"])
	}
}

func TestA1GlobalTableSavesSomeMessages(t *testing.T) {
	r := report(t, "A1")
	if !(r.Values["oracle_derefs"] < r.Values["local_derefs"]) {
		t.Errorf("oracle should remove duplicate derefs: %v", r.Values)
	}
	if r.Values["saved_frac"] <= 0 || r.Values["saved_frac"] >= 1 {
		t.Errorf("saved fraction = %.2f", r.Values["saved_frac"])
	}
}

func TestA3IndexAgreesWithTraversal(t *testing.T) {
	r := report(t, "A3")
	if r.Values["results_traversal"] != r.Values["results_index"] {
		t.Errorf("index (%v) and traversal (%v) disagree",
			r.Values["results_index"], r.Values["results_traversal"])
	}
}

func TestA5ParallelAnswersConsistent(t *testing.T) {
	r := report(t, "A5")
	// Every worker count returns the same result count (encoded in the
	// lines; the values carry timings). Speedups depend on host CPUs, so
	// assert only sanity: positive and not absurd.
	for _, w := range []string{"w1", "w2", "w4", "w8"} {
		s := r.Values[w+"_speedup"]
		if s <= 0 || s > 64 {
			t.Errorf("%s speedup = %v", w, s)
		}
	}
	if r.Values["w1_speedup"] != 1 {
		t.Errorf("baseline speedup = %v", r.Values["w1_speedup"])
	}
}

func TestA6BatchingAmortizes(t *testing.T) {
	r := report(t, "A6")
	// Per-id result messages are the worst case; batches of 8 must beat
	// them clearly.
	if !(r.Values["batch_8"] < r.Values["batch_1"]) {
		t.Errorf("batch 8 (%v) should beat batch 1 (%v)",
			r.Values["batch_8"], r.Values["batch_1"])
	}
}

func TestA8DerefBatchingShape(t *testing.T) {
	r := report(t, "A8")
	// Batch size 1 is the protocol of the paper with extra framing — it must
	// change nothing; batch 8 must cut scattered-tree messages at least 2x.
	if got := r.Values["tree_scattered_b1_msg_ratio"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("batch=1 msg ratio = %v, want exactly 1", got)
	}
	if got := r.Values["tree_scattered_b8_msg_ratio"]; got < 2 {
		t.Errorf("batch=8 scattered-tree msg ratio = %.2f, want >= 2", got)
	}
	// Larger batches never send more messages than smaller ones.
	if r.Values["tree_scattered_b16_msg_ratio"] < r.Values["tree_scattered_b4_msg_ratio"] {
		t.Errorf("msg ratio fell from batch 4 (%v) to batch 16 (%v)",
			r.Values["tree_scattered_b4_msg_ratio"], r.Values["tree_scattered_b16_msg_ratio"])
	}
}

func TestRunBatchingSweep(t *testing.T) {
	r, err := RunBatching(testCfg(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !row.ResultsMatch {
			t.Errorf("%s: batching changed the result set", row.Workload)
		}
		if row.MsgRatio < 1-1e-9 {
			t.Errorf("%s: batching sent more messages (ratio %.2f)", row.Workload, row.MsgRatio)
		}
	}
	tree := r.Row("tree_scattered")
	if tree == nil {
		t.Fatal("no tree_scattered row")
	}
	if tree.MsgRatio < 2 {
		t.Errorf("scattered-tree msg ratio = %.2f, want >= 2", tree.MsgRatio)
	}
	if tree.BatchedOn == 0 {
		t.Errorf("scattered tree sent no batched messages")
	}
	// Tree pointers never revisit a target, so suppression shows up on the
	// random-pointer rows instead.
	suppressed := 0
	for _, row := range r.Rows {
		suppressed += row.SuppressedOn
	}
	if suppressed == 0 {
		t.Error("no row suppressed a duplicate dereference")
	}
	if b, err := r.JSON(); err != nil || len(b) == 0 {
		t.Errorf("JSON rendering failed: %v", err)
	}
}

func TestRunPlanSweep(t *testing.T) {
	r, err := RunPlan(testCfg(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Cache {
		if !row.ResultsMatch {
			t.Errorf("%s: plan cache changed the result set", row.Workload)
		}
	}
	rb := r.CacheRow("repeated_body")
	if rb == nil {
		t.Fatal("no repeated_body row")
	}
	if rb.CompileRatio < 2 {
		t.Errorf("repeated-body compile ratio = %.2f, want >= 2", rb.CompileRatio)
	}
	if rb.CacheHitsOn == 0 {
		t.Error("repeated-body run never hit the cache")
	}
	// The negative control: distinct bodies leave the cache nothing to win,
	// so compile counts must match the uncached run exactly.
	db := r.CacheRow("distinct_bodies")
	if db == nil {
		t.Fatal("no distinct_bodies row")
	}
	if db.CompilesOn != db.CompilesOff {
		t.Errorf("distinct bodies: %d compiles cached vs %d uncached, want equal",
			db.CompilesOn, db.CompilesOff)
	}
	for _, row := range r.Pushdown {
		if !row.ResultsMatch {
			t.Errorf("%s: index pushdown changed the result set", row.Workload)
		}
		if row.IndexProbesOn == 0 {
			t.Errorf("%s: index enabled but never probed", row.Workload)
		}
	}
	ss := r.PushdownRowByName("select_scan")
	if ss == nil {
		t.Fatal("no select_scan row")
	}
	if ss.TuplesScannedOn != 0 {
		t.Errorf("pure-probe selection scanned %d tuples, want 0", ss.TuplesScannedOn)
	}
	if ss.InitialPrunedOn == 0 {
		t.Error("select_scan pruned nothing from the initial set")
	}
	if b, err := r.JSON(); err != nil || len(b) == 0 {
		t.Errorf("JSON rendering failed: %v", err)
	}
}

func TestA7LoadScaling(t *testing.T) {
	r := report(t, "A7")
	// Response time grows with load but sub-linearly (queries overlap).
	if !(r.Values["load4"] > r.Values["load1"]) {
		t.Errorf("4x load (%v) not slower than 1x (%v)", r.Values["load4"], r.Values["load1"])
	}
	if r.Values["slowdown4"] >= 4.5 {
		t.Errorf("slowdown at 4x load = %.2f, expected < 4.5 (interleaving must overlap work)",
			r.Values["slowdown4"])
	}
}

func TestA4OrdersAgreeOnWork(t *testing.T) {
	r := report(t, "A4")
	// Search order may shift timings slightly but not the overall scale.
	ratio := r.Values["bfs_time"] / r.Values["dfs_time"]
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("bfs/dfs = %.2f, want same order of magnitude", ratio)
	}
}

func TestRunAllAndRendering(t *testing.T) {
	cfg := testCfg()
	cfg.Queries = 1
	cfg.Objects = 90
	reports, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(All()) {
		t.Fatalf("reports = %d, want %d", len(reports), len(All()))
	}
	for _, r := range reports {
		if r.String() == "" || r.Markdown() == "" {
			t.Errorf("%s: empty rendering", r.ID)
		}
		if len(r.Lines) == 0 {
			t.Errorf("%s: no result lines", r.ID)
		}
	}
}

func TestGetLookup(t *testing.T) {
	if _, ok := Get("e5"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestDeterministicReports(t *testing.T) {
	cfg := testCfg()
	cfg.Queries = 2
	r1, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r1.Values {
		if r2.Values[k] != v {
			t.Errorf("value %s differs across runs: %v vs %v", k, v, r2.Values[k])
		}
	}
}

// TestNewBedRunsPaperProtocol guards the paper tables against a change of the
// production default: a default newBed, as Figure 4 builds it, ships one
// object id per Deref message. Figure 4's 5 %-local row is the one that
// tells: its fan-out repeats destinations, so a batching site would coalesce
// them, while E3's chain ships one id per hop under either protocol.
func TestNewBedRunsPaperProtocol(t *testing.T) {
	cfg := testCfg()
	tb, err := newBed(cfg, 3, 3, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.avgClosure(cfg, "Rand05", "Rand10"); err != nil {
		t.Fatal(err)
	}
	st := tb.c.TotalStats()
	if st.DerefsSent == 0 || st.DerefsBatched != 0 || st.DerefEntriesSent != st.DerefsSent {
		t.Errorf("sent %d Derefs carrying %d ids, %d batched: want one id each",
			st.DerefsSent, st.DerefEntriesSent, st.DerefsBatched)
	}
}
