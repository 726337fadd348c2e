package hyperfile

// One benchmark per table/figure of the paper's evaluation (E1-E9) and per
// ablation (A1-A4), each driving the deterministic experiment harness and
// reporting the headline simulated quantities as custom metrics, plus
// real-time micro-benchmarks of the core components.
//
// Regenerate the full evaluation with:
//
//	go run ./cmd/hfbench -queries 100

import (
	"fmt"
	"testing"

	"hyperfile/internal/bench"
	"hyperfile/internal/engine"
	"hyperfile/internal/index"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// runExperiment executes one harness experiment per iteration and reports
// selected simulated measurements (in seconds) as metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Default()
	cfg.Queries = 3 // keep each iteration fast; shapes are already stable
	var last *bench.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	for _, m := range metrics {
		if v, ok := last.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkE1BaseCosts regenerates the paper's measured base costs:
// ~8 ms/object, ~20 ms/result, ~50 ms/remote dereference.
func BenchmarkE1BaseCosts(b *testing.B) {
	runExperiment(b, "E1", "per_object_ms", "per_result_ms", "per_remote_ms")
}

// BenchmarkE2SingleSite regenerates the 2.7 s single-site closure (270
// objects, ~27 results, tree or chain pointers).
func BenchmarkE2SingleSite(b *testing.B) {
	runExperiment(b, "E2", "single_Tree", "single_Chain")
}

// BenchmarkE3Chain regenerates the 15 s worst-case chain result on 3 and 9
// machines.
func BenchmarkE3Chain(b *testing.B) {
	runExperiment(b, "E3", "chain_m3", "chain_m9")
}

// BenchmarkE4Tree regenerates the 1.5 s / 1.0 s spanning-tree results.
func BenchmarkE4Tree(b *testing.B) {
	runExperiment(b, "E4", "tree_m3", "tree_m9")
}

// BenchmarkE5Figure4 regenerates Figure 4 (response time vs pointer
// locality, 3 vs 9 machines); the reported metrics are the figure's two
// endpoints per series.
func BenchmarkE5Figure4(b *testing.B) {
	runExperiment(b, "E5", "p05_m3", "p95_m3", "p05_m9", "p95_m9")
}

// BenchmarkE6Selectivity regenerates the selectivity crossover (distributed
// wins at 10% selectivity, single site wins at select-all).
func BenchmarkE6Selectivity(b *testing.B) {
	runExperiment(b, "E6", "sel10_m1", "sel10_m3", "selall_m1", "selall_m3")
}

// BenchmarkE7Scaling regenerates the dataset-size scaling observation.
func BenchmarkE7Scaling(b *testing.B) {
	runExperiment(b, "E7", "ratio")
}

// BenchmarkE8DistributedSet regenerates the distributed-result-set
// refinement measurements.
func BenchmarkE8DistributedSet(b *testing.B) {
	runExperiment(b, "E8", "ship", "refined", "followup")
}

// BenchmarkE9MessageCost regenerates the query-vs-file message cost
// comparison against the file-server baseline.
func BenchmarkE9MessageCost(b *testing.B) {
	runExperiment(b, "E9", "ratio", "deref_bytes")
}

// BenchmarkAblationMarkTable compares local mark tables against a zero-cost
// global oracle.
func BenchmarkAblationMarkTable(b *testing.B) {
	runExperiment(b, "A1", "local_time", "oracle_time", "saved_frac")
}

// BenchmarkAblationIndex compares index lookups against query traversal.
func BenchmarkAblationIndex(b *testing.B) {
	runExperiment(b, "A3", "lookup_us", "traversal_us")
}

// BenchmarkAblationWorkset compares breadth-first and depth-first working
// sets.
func BenchmarkAblationWorkset(b *testing.B) {
	runExperiment(b, "A4", "bfs_time", "dfs_time")
}

// BenchmarkAblationMultiprocessor measures the shared-memory mode of the
// paper's conclusion (wall-clock speedup; depends on host CPUs).
func BenchmarkAblationMultiprocessor(b *testing.B) {
	runExperiment(b, "A5", "w1_us", "w2_us", "w4_us")
}

// BenchmarkAblationResultBatch sweeps the result-message batch size.
func BenchmarkAblationResultBatch(b *testing.B) {
	runExperiment(b, "A6", "batch_1", "batch_8", "batch_unbounded")
}

// BenchmarkAblationLoad measures response time under concurrent query load.
func BenchmarkAblationLoad(b *testing.B) {
	runExperiment(b, "A7", "load1", "load4", "slowdown4")
}

// --- real-time component micro-benchmarks ---

// engineFixture builds a single-store workload for engine benchmarks.
func engineFixture(b *testing.B, n int) (*store.Store, object.ID) {
	b.Helper()
	st := store.New(1)
	d, err := workload.Build(benchPlacer{st}, workload.Spec{N: n, Machines: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return st, d.Root
}

type benchPlacer struct{ st *store.Store }

func (p benchPlacer) Sites() []object.SiteID                      { return []object.SiteID{1} }
func (p benchPlacer) Store(object.SiteID) *store.Store            { return p.st }
func (p benchPlacer) Put(_ object.SiteID, o *object.Object) error { return p.st.Put(o) }

// BenchmarkEngineClosure measures raw engine throughput: one transitive
// closure + selection over 270 objects per iteration.
func BenchmarkEngineClosure(b *testing.B) {
	st, root := engineFixture(b, 270)
	compiled := query.MustCompile(workload.ClosureQuery("Rand80", "Rand10", 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(compiled, st)
		e.AddInitial(root)
		e.Run()
	}
}

// BenchmarkEngineSelection measures flat selection over the whole store.
func BenchmarkEngineSelection(b *testing.B) {
	st, _ := engineFixture(b, 270)
	ids := st.IDs()
	compiled := query.MustCompile(`S (Rand100, 1..50, ?) -> T`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(compiled, st)
		e.AddInitial(ids...)
		e.Run()
	}
}

// BenchmarkQueryParse measures the parser on the experimental query.
func BenchmarkQueryParse(b *testing.B) {
	src := workload.ClosureQuery("Tree", "Rand10", 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeDeref measures encoding the ~80-byte deref message.
func BenchmarkWireEncodeDeref(b *testing.B) {
	m := &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body:   workload.ClosureQuery("Tree", "Rand10", 5),
		ObjIDs: []object.ID{{Birth: 3, Seq: 99}}, Start: 2,
		Token: make([]byte, 12),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Encode(m)
	}
}

// BenchmarkWireDecodeDeref measures decoding the same message.
func BenchmarkWireDecodeDeref(b *testing.B) {
	m := &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body:   workload.ClosureQuery("Tree", "Rand10", 5),
		ObjIDs: []object.ID{{Birth: 3, Seq: 99}}, Start: 2,
		Token: make([]byte, 12),
	}
	data := wire.Encode(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeywordIndexLookup measures inverted-index lookups.
func BenchmarkKeywordIndexLookup(b *testing.B) {
	st, _ := engineFixture(b, 270)
	ix := index.BuildKeyword(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup("Rand10", fmt.Sprint(i%10+1))
	}
}

// BenchmarkReachIndexBuild measures closure-index construction (amortized
// over many queries in practice).
func BenchmarkReachIndexBuild(b *testing.B) {
	st, _ := engineFixture(b, 270)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildReach(st, "Rand80")
	}
}

// BenchmarkStorePut measures object ingestion.
func BenchmarkStorePut(b *testing.B) {
	st := store.New(1)
	o := st.NewObject().
		Add("String", object.String("Title"), object.String("doc")).
		Add("keyword", object.Keyword("db"), object.Value{}).
		Add("Pointer", object.String("Ref"), object.Pointer(object.ID{Birth: 1, Seq: 1}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(o); err != nil {
			b.Fatal(err)
		}
	}
}
