package bench

import (
	"fmt"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/fileserver"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// RunE1 derives the marginal base costs from simulator runs: the paper
// measured ~8 ms to process an object, ~20 ms to add a result, and ~50 ms
// per remote message. We recover each as a difference of two runs so fixed
// overheads cancel.
func RunE1(cfg Config) (*Report, error) {
	r := newReport("E1", "base costs",
		"~8 ms/object, +20 ms/result, ~50 ms/remote dereference, ~50 ms/result message")
	one := cfg
	one.Queries = 1

	// Per-object: no-match tree query on one site at two dataset sizes.
	tNone := make(map[int]time.Duration)
	tAll := make(map[int]time.Duration)
	for _, n := range []int{100, 200} {
		c := one
		c.Objects = n
		tb, err := newBed(c, 1, 1, cluster.Options{})
		if err != nil {
			return nil, err
		}
		// Rand1000 key 0 is never generated: matches nothing.
		_, rtN, err := tb.c.Exec(1, workload.ClosureQuery("Tree", "Rand1000", 0), []object.ID{tb.d.Root})
		if err != nil {
			return nil, err
		}
		tNone[n] = rtN
		_, rtA, err := tb.c.Exec(1, workload.ClosureQueryKeyword("Tree", "Common", "all"), []object.ID{tb.d.Root})
		if err != nil {
			return nil, err
		}
		tAll[n] = rtA
	}
	perObject := (tNone[200] - tNone[100]) / 100
	perResult := (tAll[200] - tNone[200]) / 200
	r.addf("per-object processing:      %6.1f ms   (paper: ~8 ms)", ms(perObject))
	r.addf("per-result-set add:         %6.1f ms   (paper: ~20 ms)", ms(perResult))
	r.set("per_object_ms", ms(perObject))
	r.set("per_result_ms", ms(perResult))

	// Per-remote-dereference: chain closure, 2 machines vs the same graph
	// on 1 machine. Every chain hop becomes one remote message.
	var tChain [2]time.Duration
	for i, machines := range []int{1, 2} {
		c := one
		c.Objects = 100
		tb, err := newBed(c, machines, 2, cluster.Options{})
		if err != nil {
			return nil, err
		}
		_, rt, err := tb.c.Exec(1, workload.ClosureQuery("Chain", "Rand1000", 0), []object.ID{tb.d.Root})
		if err != nil {
			return nil, err
		}
		tChain[i] = rt
	}
	perRemote := (tChain[1] - tChain[0]) / 100
	r.addf("per-remote-dereference:     %6.1f ms   (paper: ~50 ms)", ms(perRemote))
	r.set("per_remote_ms", ms(perRemote))

	// Query message size on the wire.
	deref := &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 42}, Origin: 1,
		Body:   workload.ClosureQuery("Tree", "Rand10", 5),
		ObjIDs: []object.ID{{Birth: 3, Seq: 123}}, Start: 2,
		Token: firstSplitToken(),
	}
	size := len(wire.Encode(deref))
	r.addf("dereference message size:   %6d bytes (paper: ~40 bytes)", size)
	r.set("deref_bytes", float64(size))
	return r, nil
}

// firstSplitToken is the credit token of an originator's first split, 1/2 in
// two bytes. With credit handed on, every hop of a serial chain carries
// exactly this share.
func firstSplitToken() []byte {
	tok, _ := termination.New(termination.Weighted, 1, 1).OnSend(2) // a fresh originator holds 1
	return tok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunE2 reproduces the single-site base case: a transitive closure over 270
// objects returning ~10% of them took 2.7 s for both tree and chain
// pointers (structure is irrelevant on one machine).
func RunE2(cfg Config) (*Report, error) {
	r := newReport("E2", "single-site closure, 270 objects, ~27 results",
		"2.7 s following either tree or chain pointers")
	tb, err := newBed(cfg, 1, 3, cluster.Options{})
	if err != nil {
		return nil, err
	}
	for _, ptr := range []string{"Tree", "Chain"} {
		avg, err := tb.avgClosure(cfg, ptr, "Rand10")
		if err != nil {
			return nil, err
		}
		r.addf("%-6s pointers: %6.2f s", ptr, secs(avg))
		r.set("single_"+ptr, secs(avg))
	}
	return r, nil
}

// RunE3 reproduces the worst-case delay scenario: chain pointers always
// remote, every server idle while each message is in transit — 15 s on
// either 3 or 9 machines.
func RunE3(cfg Config) (*Report, error) {
	r := newReport("E3", "chain pointers, distributed (worst-case delay)",
		"15 s on both 3 and 9 machines (vs 2.7 s single site)")
	for _, m := range []int{3, 9} {
		tb, err := newBed(cfg, m, m, cluster.Options{})
		if err != nil {
			return nil, err
		}
		avg, err := tb.avgClosure(cfg, "Chain", "Rand10")
		if err != nil {
			return nil, err
		}
		r.addf("%d machines: %6.2f s", m, secs(avg))
		r.set(fmt.Sprintf("chain_m%d", m), secs(avg))
	}
	return r, nil
}

// RunE4 reproduces the high-parallelism case: tree pointers split once to
// each machine then stay local — 1.5 s on 3 machines, 1.0 s on 9, both
// faster than the 2.7 s single site.
func RunE4(cfg Config) (*Report, error) {
	r := newReport("E4", "tree pointers, distributed (high parallelism)",
		"1.5 s on 3 machines, 1.0 s on 9 (vs 2.7 s single site)")
	for _, m := range []int{3, 9} {
		tb, err := newBed(cfg, m, m, cluster.Options{})
		if err != nil {
			return nil, err
		}
		avg, err := tb.avgClosure(cfg, "Tree", "Rand10")
		if err != nil {
			return nil, err
		}
		r.addf("%d machines: %6.2f s", m, secs(avg))
		r.set(fmt.Sprintf("tree_m%d", m), secs(avg))
	}
	return r, nil
}

// RunE5 reproduces Figure 4: average response time of closure queries over
// the random-pointer graphs as a function of the probability that a pointer
// is local, on 3 and 9 machines.
func RunE5(cfg Config) (*Report, error) {
	r := newReport("E5", "Figure 4: response time vs pointer locality",
		"left edge (5% local) slowest; best at >=80% local; 9 machines tolerate remote pointers better than 3")
	r.addf("%-8s %12s %12s", "p(local)", "3 machines", "9 machines")
	for _, m := range []int{3, 9} {
		tb, err := newBed(cfg, m, m, cluster.Options{})
		if err != nil {
			return nil, err
		}
		for _, p := range fmtClasses() {
			class := workload.ClassName(p)
			avg, err := tb.avgClosure(cfg, class, "Rand10")
			if err != nil {
				return nil, err
			}
			r.set(fmt.Sprintf("p%02.0f_m%d", p*100, m), secs(avg))
		}
	}
	for _, p := range fmtClasses() {
		r.addf("%-8.2f %10.2f s %10.2f s", p,
			r.Values[fmt.Sprintf("p%02.0f_m3", p*100)],
			r.Values[fmt.Sprintf("p%02.0f_m9", p*100)])
	}
	// ASCII rendering of the figure, matching the paper's layout: response
	// time (bars) against the probability of a pointer being local (axis).
	peak := 0.0
	for _, v := range r.Values {
		if v > peak {
			peak = v
		}
	}
	if peak > 0 {
		r.addf("")
		r.addf("Figure 4 (each # ~ %.2f s)", peak/48)
		for _, p := range fmtClasses() {
			v3 := r.Values[fmt.Sprintf("p%02.0f_m3", p*100)]
			v9 := r.Values[fmt.Sprintf("p%02.0f_m9", p*100)]
			r.addf("%4.2f 3m |%-48s| %5.2fs", p, bar(v3, peak, 48), v3)
			r.addf("     9m |%-48s| %5.2fs", bar(v9, peak, 48), v9)
		}
	}
	return r, nil
}

// bar renders v/peak as a proportional run of '#'.
func bar(v, peak float64, width int) string {
	n := int(v / peak * float64(width))
	if n < 1 {
		n = 1
	}
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// RunE6 reproduces the selectivity crossover: on the 95%-local graph a
// selective query (~10% of items) is faster distributed than on a single
// site, while select-all is faster on the single site ("sending results is
// expensive").
func RunE6(cfg Config) (*Report, error) {
	r := newReport("E6", "selectivity: distributed vs single site (Rand95 graph)",
		"10%: 1.1 s (3 and 9 machines) vs 1.5 s (1); select-all: 6.4 s (3) / 5.7 s (9) vs 5.1 s (1)")
	machines := []struct {
		m, structure int
	}{{1, 3}, {3, 3}, {9, 3}}
	r.addf("%-10s %10s %12s", "machines", "10% (s)", "select-all (s)")
	for _, mm := range machines {
		tb, err := newBed(cfg, mm.m, mm.structure, cluster.Options{})
		if err != nil {
			return nil, err
		}
		sel, err := tb.avgClosure(cfg, "Rand95", "Rand10")
		if err != nil {
			return nil, err
		}
		one := cfg
		one.Queries = 1 // select-all is deterministic: one run suffices
		all, err := tb.avgClosure(one, "Rand95", "Common")
		if err != nil {
			return nil, err
		}
		r.addf("%-10d %10.2f %12.2f", mm.m, secs(sel), secs(all))
		r.set(fmt.Sprintf("sel10_m%d", mm.m), secs(sel))
		r.set(fmt.Sprintf("selall_m%d", mm.m), secs(all))
	}
	return r, nil
}

// RunE7 reproduces the dataset-size scaling remark: half the items did not
// quite halve the query time (fixed per-query overhead), and scaling is
// otherwise linear.
func RunE7(cfg Config) (*Report, error) {
	r := newReport("E7", "dataset-size scaling (tree, 3 machines)",
		"half the items -> a bit more than half the time; linear in dataset size")
	times := map[int]time.Duration{}
	for _, n := range []int{cfg.Objects / 2, cfg.Objects} {
		c := cfg
		c.Objects = n
		tb, err := newBed(c, 3, 3, cluster.Options{})
		if err != nil {
			return nil, err
		}
		avg, err := tb.avgClosure(c, "Tree", "Rand10")
		if err != nil {
			return nil, err
		}
		times[n] = avg
		r.addf("%4d objects: %6.2f s", n, secs(avg))
		r.set(fmt.Sprintf("n%d", n), secs(avg))
	}
	ratio := float64(times[cfg.Objects]) / float64(times[cfg.Objects/2])
	r.addf("full/half ratio: %.2f (2.0 would be pure linearity; <2 shows the constant overhead)", ratio)
	r.set("ratio", ratio)
	return r, nil
}

// RunE8 measures the section-5 refinement: for select-all queries, keeping
// the result as a distributed set (counts only) removes the result-shipping
// cost, and a follow-up query can start from the distributed set.
func RunE8(cfg Config) (*Report, error) {
	r := newReport("E8", "distributed result sets for low-selectivity queries",
		"proposed refinement: servers return counts; follow-up queries restrict the set in place")
	one := cfg
	one.Queries = 1

	run := func(threshold int) (time.Duration, *cluster.SimCluster, wire.QueryID, error) {
		tb, err := newBed(one, 3, 3, cluster.Options{Ablation: site.Ablation{DistributedSetThreshold: threshold}})
		if err != nil {
			return 0, nil, wire.QueryID{}, err
		}
		res, qid, rt, err := tb.c.ExecQID(1, workload.ClosureQueryKeyword("Rand95", "Common", "all"), []object.ID{tb.d.Root})
		if err != nil {
			return 0, nil, wire.QueryID{}, err
		}
		_ = res
		return rt, tb.c, qid, nil
	}

	plain, _, _, err := run(0)
	if err != nil {
		return nil, err
	}
	refined, c, qid, err := run(10)
	if err != nil {
		return nil, err
	}
	r.addf("select-all, ship ids:          %6.2f s", secs(plain))
	r.addf("select-all, distributed set:   %6.2f s", secs(refined))
	r.set("ship", secs(plain))
	r.set("refined", secs(refined))

	// Follow-up restriction over the retained distributed set.
	res2, rt2, err := c.ExecSeeded(1, `S (Rand10, 5, ?) -> U`, qid)
	if err != nil {
		return nil, err
	}
	r.addf("follow-up restriction (Rand10=5) over the set: %6.2f s, %d results", secs(rt2), res2.Count)
	r.set("followup", secs(rt2))
	r.set("followup_results", float64(res2.Count))
	return r, nil
}

// RunE9 quantifies the introduction's message-cost argument against the
// file-interface baseline: a filtering query ships ~40-byte messages, a file
// server ships whole objects.
func RunE9(cfg Config) (*Report, error) {
	r := newReport("E9", "message cost vs file-server baseline",
		"~40-byte query messages vs potentially huge whole-file transfers")
	const payload = 2048

	// Build one dataset over plain stores shared by both systems.
	stores := map[object.SiteID]*store.Store{}
	c := cluster.NewSim(3, cluster.Options{Cost: cfg.Cost, Tuning: site.Tuning{DerefBatch: site.Unbatched}})
	d, err := workload.Build(c, workload.Spec{
		N: cfg.Objects, Machines: 3, Seed: cfg.Seed, PayloadBytes: payload,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range c.Sites() {
		stores[s] = c.Store(s)
	}

	// HyperFile: run the closure query; count deref messages and bytes.
	_, _, err = c.Exec(1, workload.ClosureQuery("Tree", "Rand10", 5), []object.ID{d.Root})
	if err != nil {
		return nil, err
	}
	st := c.TotalStats()
	derefBytes := len(wire.Encode(&wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 1}, Origin: 1,
		Body:   workload.ClosureQuery("Tree", "Rand10", 5),
		ObjIDs: []object.ID{d.Root}, Token: firstSplitToken(),
	}))
	hfBytes := st.DerefsSent * derefBytes
	r.addf("HyperFile: %4d deref messages x %d bytes = %8d bytes shipped",
		st.DerefsSent, derefBytes, hfBytes)

	// Baseline: client-side traversal fetching whole objects.
	fs := fileserver.NewClient(stores)
	fs.ClosureSearch([]object.ID{d.Root}, "Tree",
		fileserver.MatchTuple("Rand10", object.Int(5)))
	bs := fs.Stats()
	r.addf("file srv:  %4d object fetches, %8d bytes shipped (%d bytes/object)",
		bs.Fetches, bs.BytesShipped, bs.BytesShipped/max(bs.Fetches, 1))
	ratio := float64(bs.BytesShipped) / float64(max(hfBytes, 1))
	r.addf("baseline ships %.0fx the bytes", ratio)
	r.set("hf_bytes", float64(hfBytes))
	r.set("fs_bytes", float64(bs.BytesShipped))
	r.set("ratio", ratio)
	r.set("deref_bytes", float64(derefBytes))
	return r, nil
}
