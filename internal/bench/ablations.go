package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/engine"
	"hyperfile/internal/index"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/workload"
)

// RunA1 measures the local-vs-global mark-table decision (section 3.2): the
// local tables allow duplicate dereference messages; an oracle global table
// suppresses them at zero cost. The paper argues the real cost of a global
// table outweighs the duplicate messages — the oracle bounds the most that
// could possibly be saved.
func RunA1(cfg Config) (*Report, error) {
	r := newReport("A1", "local vs global (oracle) mark table",
		"paper keeps mark tables local: a global table's communication cost would outweigh the duplicate messages")
	for _, oracle := range []bool{false, true} {
		tb, err := newBed(cfg, 3, 3, cluster.Options{OracleMarkTable: oracle})
		if err != nil {
			return nil, err
		}
		avg, err := tb.avgClosure(cfg, "Rand50", "Rand10")
		if err != nil {
			return nil, err
		}
		st := tb.c.TotalStats()
		name := "local marks       "
		key := "local"
		if oracle {
			name = "global-mark oracle"
			key = "oracle"
		}
		r.addf("%s: %6.2f s avg, %5d deref msgs, %5d duplicate items skipped",
			name, secs(avg), st.DerefsSent, st.Engine.Skipped)
		r.set(key+"_time", secs(avg))
		r.set(key+"_derefs", float64(st.DerefsSent))
		r.set(key+"_skipped", float64(st.Engine.Skipped))
	}
	saved := r.Values["local_derefs"] - r.Values["oracle_derefs"]
	frac := saved / r.Values["local_derefs"]
	r.addf("duplicate messages an ideal global table saves: %.0f (%.0f%%)", saved, frac*100)
	r.set("saved_frac", frac)
	return r, nil
}

// RunA3 compares answering "reachable from X with keyword K" by query
// traversal against the precomputed reachability + keyword indexes the paper
// cites as companion work. Wall-clock, single site.
func RunA3(cfg Config) (*Report, error) {
	r := newReport("A3", "reachability+keyword index vs query traversal",
		"indexes answer reachability-with-keyword lookups without traversal (companion-work facility)")

	st := store.New(1)
	d, err := workload.Build(singleStorePlacer{st}, workload.Spec{N: cfg.Objects, Machines: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Traversal: run the engine directly.
	compiled := query.MustCompile(workload.ClosureQuery("Rand80", "Rand10", 5))
	t0 := time.Now()
	e := engine.New(compiled, st)
	e.AddInitial(d.Root)
	e.Run()
	traversal := time.Since(t0)
	nRes := len(e.Results())

	// Index: build once, then answer.
	tb0 := time.Now()
	kw := index.BuildKeyword(st)
	rx := index.BuildReach(st, "Rand80")
	buildTime := time.Since(tb0)
	tq := time.Now()
	hits := index.ReachableWith(rx, kw, d.Root, "Rand10", "5")
	lookup := time.Since(tq)

	r.addf("traversal:    %8s wall, %d results, %d objects touched",
		traversal.Round(time.Microsecond), nRes, e.Stats().Processed)
	r.addf("index build:  %8s wall (amortized over all queries)", buildTime.Round(time.Microsecond))
	r.addf("index lookup: %8s wall, %d results", lookup.Round(time.Microsecond), len(hits))
	if len(hits) != nRes {
		r.addf("NOTE: result mismatch traversal=%d index=%d", nRes, len(hits))
	}
	r.set("traversal_us", float64(traversal.Microseconds()))
	r.set("lookup_us", float64(lookup.Microseconds()))
	r.set("results_traversal", float64(nRes))
	r.set("results_index", float64(len(hits)))
	return r, nil
}

// singleStorePlacer adapts one store to the workload Placer interface.
type singleStorePlacer struct{ st *store.Store }

func (p singleStorePlacer) Sites() []object.SiteID                      { return []object.SiteID{1} }
func (p singleStorePlacer) Store(object.SiteID) *store.Store            { return p.st }
func (p singleStorePlacer) Put(_ object.SiteID, o *object.Object) error { return p.st.Put(o) }

// RunA5 measures the shared-memory multiprocessor mode of the paper's
// conclusion: processors sharing the mark table and working set. Wall-clock
// speedup on one large in-memory store.
func RunA5(cfg Config) (*Report, error) {
	r := newReport("A5", "shared-memory multiprocessor processing",
		"conclusion: all available processors share the query information, mark table, and working set")
	// Documents heavy enough that per-object filter evaluation dominates
	// queue coordination: several hundred keyword tuples scanned by a
	// substring pattern, the realistic shape of full-text-ish selection.
	st := store.New(1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Objects * 2
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = st.NewObject()
	}
	alphabet := []rune("abcdefghijklmnopqrstuvwxyz")
	word := func() string {
		b := make([]rune, 12)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i, o := range objs {
		for k := 0; k < 300; k++ {
			o.Add("keyword", object.Keyword(word()), object.Value{})
		}
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%n].ID))
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(n)].ID))
		if err := st.Put(o); err != nil {
			return nil, err
		}
	}
	root := objs[0].ID
	compiled := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, ~"qzx", ?) -> T`)

	// Warm once so allocations/caches settle.
	engine.RunParallel(compiled, st, 1, []object.ID{root})

	r.addf("host parallelism: GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		const reps = 9
		best := time.Duration(0)
		var results int
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			out := engine.RunParallel(compiled, st, workers, []object.ID{root})
			elapsed := time.Since(t0)
			if best == 0 || elapsed < best {
				best = elapsed // min-of-runs: robust for CPU-bound work
			}
			results = len(out.Results)
		}
		if workers == 1 {
			base = best
		}
		speedup := float64(base) / float64(best)
		r.addf("%d processors: %8s wall (best of %d), %d results, speedup %.2fx",
			workers, best.Round(time.Microsecond), reps, results, speedup)
		r.set(fmt.Sprintf("w%d_us", workers), float64(best.Microseconds()))
		r.set(fmt.Sprintf("w%d_speedup", workers), speedup)
	}
	return r, nil
}

// RunA6 sweeps the result-batch size: small batches pay per-message
// overhead, huge batches concentrate originator stalls. The default is 0,
// unbounded: a drain's results travel in one Result message.
func RunA6(cfg Config) (*Report, error) {
	r := newReport("A6", "result-message batch size",
		"result messages cost ~50 ms each; batching amortizes the overhead across ids")
	one := cfg
	one.Queries = 1
	for _, batch := range []int{1, 4, 8, 32, 0} {
		tb, err := newBed(one, 3, 3, cluster.Options{Ablation: site.Ablation{ResultBatch: batch}})
		if err != nil {
			return nil, err
		}
		_, rt, err := tb.c.Exec(1, workload.ClosureQueryKeyword("Tree", "Common", "all"), []object.ID{tb.d.Root})
		if err != nil {
			return nil, err
		}
		st := tb.c.TotalStats()
		label := fmt.Sprint(batch)
		if batch == 0 {
			label = "unbounded"
		}
		r.addf("batch %-9s: %6.2f s select-all, %4d result msgs", label, secs(rt), st.ResultsSent)
		r.set("batch_"+label, secs(rt))
	}
	return r, nil
}

// RunA7 measures multi-query load: HyperFile is "a shared resource"
// (section 1), so several clients' queries interleave at each serial
// server. Sites process query working sets round-robin; average response
// time grows roughly linearly with concurrent load while total throughput
// holds.
func RunA7(cfg Config) (*Report, error) {
	r := newReport("A7", "concurrent query load",
		"section 1: the server is a shared resource — concurrent queries interleave at each site")
	for _, load := range []int{1, 2, 4, 6} {
		tb, err := newBed(cfg, 3, 3, cluster.Options{})
		if err != nil {
			return nil, err
		}
		queries := make([]cluster.BatchQuery, load)
		for i := range queries {
			queries[i] = cluster.BatchQuery{
				Origin:  object.SiteID(i%3 + 1),
				Body:    workload.ClosureQuery("Tree", "Rand10", 1+i%10),
				Initial: []object.ID{tb.d.Root},
			}
		}
		_, times, err := tb.c.ExecBatch(queries)
		if err != nil {
			return nil, err
		}
		var sum time.Duration
		for _, rt := range times {
			sum += rt
		}
		avg := sum / time.Duration(load)
		r.addf("%d concurrent queries: %6.2f s avg response", load, secs(avg))
		r.set(fmt.Sprintf("load%d", load), secs(avg))
	}
	r.addf("slowdown at 4x load: %.2fx", r.Values["load4"]/r.Values["load1"])
	r.set("slowdown4", r.Values["load4"]/r.Values["load1"])
	return r, nil
}

// RunA4 compares working-set disciplines (paper footnote 4, citing
// Kapidakis: breadth-first gives the best average case).
func RunA4(cfg Config) (*Report, error) {
	r := newReport("A4", "breadth-first vs depth-first working set",
		"footnote 4: node-based (breadth-first) search gives the best results in the average case")
	for _, ord := range []engine.Order{engine.BFS, engine.DFS} {
		tb, err := newBed(cfg, 3, 3, cluster.Options{Ablation: site.Ablation{Order: ord}})
		if err != nil {
			return nil, err
		}
		avg, err := tb.avgClosure(cfg, "Rand50", "Rand10")
		if err != nil {
			return nil, err
		}
		st := tb.c.TotalStats()
		r.addf("%s: %6.2f s avg, %5d deref msgs", ord, secs(avg), st.DerefsSent)
		r.set(fmt.Sprintf("%s_time", ord), secs(avg))
	}
	return r, nil
}
