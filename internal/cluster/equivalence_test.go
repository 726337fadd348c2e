package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/termination"
	"hyperfile/internal/workload"
)

// TestSimAndLocalRunnersAgree: the virtual-time and goroutine runners drive
// the same site logic; on identical datasets every query must return the
// same result set.
func TestSimAndLocalRunnersAgree(t *testing.T) {
	const machines = 3
	specs := workload.Spec{N: 60, Machines: machines, Seed: 5}

	simC := NewSim(machines, Options{Cost: sim.Free()})
	dSim, err := workload.Build(simC, specs)
	if err != nil {
		t.Fatal(err)
	}
	locC := NewLocal(machines, Options{})
	defer locC.Close()
	dLoc, err := workload.Build(locC, specs)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		workload.ClosureQuery("Tree", "Rand10", 5),
		workload.ClosureQuery("Chain", "Rand100", 17),
		workload.ClosureQuery("Rand50", "Rand10", 3),
		workload.ClosureQueryKeyword("Tree", "Common", "all"),
		workload.ClosureQueryKeyword("Rand95", "Unique", "u7"),
	}
	for _, q := range queries {
		simRes, _, err := simC.Exec(1, q, []object.ID{dSim.Root})
		if err != nil {
			t.Fatalf("sim %s: %v", q, err)
		}
		locRes, err := locC.Exec(2, q, []object.ID{dLoc.Root}, 20*time.Second)
		if err != nil {
			t.Fatalf("local %s: %v", q, err)
		}
		// Same seed and spec produce identical ids in both clusters.
		if len(simRes.IDs) != len(locRes.IDs) {
			t.Fatalf("%s: sim %d results, local %d", q, len(simRes.IDs), len(locRes.IDs))
		}
		simSet := object.NewIDSet(simRes.IDs...)
		for _, id := range locRes.IDs {
			if !simSet.Has(id) {
				t.Fatalf("%s: local result %v missing from sim results", q, id)
			}
		}
	}
}

// equivCases is one query per workload pointer class, rotating over the
// selection classes, so the equivalence suite exercises every traversal the
// generator can produce: the spanning tree, the cross-machine chain, and all
// seven random-pointer locality classes.
func equivCases() []string {
	return []string{
		workload.ClosureQuery("Tree", "Rand10", 5),
		workload.ClosureQuery("Chain", "Rand100", 17),
		workload.ClosureQuery("Rand05", "Rand10", 3),
		workload.ClosureQueryKeyword("Rand20", "Common", "all"),
		workload.ClosureQuery("Rand35", "Rand100", 42),
		workload.ClosureQuery("Rand50", "Rand10", 7),
		workload.ClosureQueryKeyword("Rand65", "Unique", "u13"),
		workload.ClosureQuery("Rand80", "Rand10", 1),
		workload.ClosureQueryKeyword("Rand95", "Common", "all"),
	}
}

// TestCrossTopologyBatchingEquivalence is the batching acceptance suite:
// the same logical graph (StructureMachines pins the structure) is placed on
// 1, 3, and 9 sites, and every query class runs with deref batching off and
// on. Within a topology the two modes must return byte-identical sorted
// result-id sets and identical unreachable annotations; across topologies
// the *logical* result sets (ids mapped back to generator indices) must
// match, since placement cannot change a query's answer. On the 3- and
// 9-site rows the goroutine runner must agree with the simulator in both
// modes.
func TestCrossTopologyBatchingEquivalence(t *testing.T) {
	const (
		nObjects  = 120
		structure = 9
		seed      = 11
		batchSize = 8
	)
	queries := equivCases()

	// logical[q] is the query's answer as a set of generator indices,
	// established by the first topology and checked against all others.
	logical := make([]map[int]bool, len(queries))

	for _, machines := range []int{1, 3, 9} {
		spec := workload.Spec{
			N: nObjects, Machines: machines,
			StructureMachines: structure, Seed: seed,
		}

		build := func(batch int) (*SimCluster, *workload.Dataset) {
			c := NewSim(machines, Options{Cost: sim.Free(), DerefBatch: batch})
			d, err := workload.Build(c, spec)
			if err != nil {
				t.Fatalf("%d sites: %v", machines, err)
			}
			return c, d
		}
		plain, dPlain := build(site.Unbatched)
		batched, dBatched := build(batchSize)

		// id -> logical index, for the cross-topology comparison.
		idx := make(map[object.ID]int, len(dPlain.IDs))
		for i, id := range dPlain.IDs {
			idx[id] = i
		}

		var locPlain, locBatched *LocalCluster
		var dLocP, dLocB *workload.Dataset
		if machines == 3 || machines == 9 {
			locPlain = NewLocal(machines, Options{DerefBatch: site.Unbatched})
			defer locPlain.Close()
			locBatched = NewLocal(machines, Options{DerefBatch: batchSize})
			defer locBatched.Close()
			var err error
			if dLocP, err = workload.Build(locPlain, spec); err != nil {
				t.Fatal(err)
			}
			if dLocB, err = workload.Build(locBatched, spec); err != nil {
				t.Fatal(err)
			}
		}

		for qi, q := range queries {
			name := fmt.Sprintf("%d sites, query %d (%s)", machines, qi, q)
			resP, _, err := plain.Exec(1, q, []object.ID{dPlain.Root})
			if err != nil {
				t.Fatalf("%s: unbatched: %v", name, err)
			}
			resB, _, err := batched.Exec(1, q, []object.ID{dBatched.Root})
			if err != nil {
				t.Fatalf("%s: batched: %v", name, err)
			}
			// Complete messages carry sorted ids, so slice equality is the
			// byte-identical check.
			if !equalIDs(resP.IDs, resB.IDs) {
				t.Fatalf("%s: batching changed the answer: %d ids vs %d",
					name, len(resP.IDs), len(resB.IDs))
			}
			if !equalSites(resP.Unreachable, resB.Unreachable) ||
				resP.Partial != resB.Partial {
				t.Fatalf("%s: batching changed unreachable annotations: %v/%v vs %v/%v",
					name, resP.Unreachable, resP.Partial, resB.Unreachable, resB.Partial)
			}

			// Cross-topology: same logical answer regardless of placement.
			got := make(map[int]bool, len(resP.IDs))
			for _, id := range resP.IDs {
				li, ok := idx[id]
				if !ok {
					t.Fatalf("%s: result %v is not a generated object", name, id)
				}
				got[li] = true
			}
			if logical[qi] == nil {
				logical[qi] = got
			} else if !equalIndexSets(logical[qi], got) {
				t.Fatalf("%s: logical answer differs from previous topology: %d vs %d indices",
					name, len(got), len(logical[qi]))
			}

			if locPlain != nil {
				lp, err := locPlain.Exec(1, q, []object.ID{dLocP.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local unbatched: %v", name, err)
				}
				lb, err := locBatched.Exec(1, q, []object.ID{dLocB.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local batched: %v", name, err)
				}
				if !equalIDs(resP.IDs, lp.IDs) || !equalIDs(resP.IDs, lb.IDs) {
					t.Fatalf("%s: goroutine runner disagrees with simulator (%d/%d vs %d ids)",
						name, len(lp.IDs), len(lb.IDs), len(resP.IDs))
				}
			}
		}

		// The suite must actually exercise the batched path: on a
		// multi-machine topology the batched cluster has to have coalesced
		// or suppressed something over nine query classes.
		if machines > 1 {
			st := batched.TotalStats()
			if st.DerefsBatched == 0 && st.DerefsSuppressed == 0 {
				t.Errorf("%d sites: batching enabled but no Deref was ever batched or suppressed", machines)
			}
			if st.DerefEntriesSent < st.DerefsSent {
				t.Errorf("%d sites: entries %d < messages %d", machines, st.DerefEntriesSent, st.DerefsSent)
			}
			pst := plain.TotalStats()
			if pst.DerefsSent > 0 && st.DerefsSent >= pst.DerefsSent+pst.DerefsSent/10 {
				t.Errorf("%d sites: batching sent more Deref messages (%d) than the unbatched run (%d)",
					machines, st.DerefsSent, pst.DerefsSent)
			}
		}
	}
}

// TestPlanCacheAndIndexEquivalence is the planner acceptance matrix: every
// query class runs on 1, 3, and 9 sites with the plan cache and the keyword
// index independently off and on, and all four configurations must return
// byte-identical sorted result-id sets and identical unreachable annotations.
// On the cached configurations every query runs twice — the second execution
// is served from the cache at every involved site, so the matrix also proves
// a cache-hit plan answers exactly like a freshly compiled one.
func TestPlanCacheAndIndexEquivalence(t *testing.T) {
	const (
		nObjects  = 120
		structure = 9
		seed      = 11
	)
	queries := equivCases()
	modes := []struct {
		name   string
		cache  int
		index  bool
		rounds int // executions per query on this cluster
	}{
		{"baseline", 0, false, 1},
		{"plan-cache", 4, false, 2},
		{"index", 0, true, 1},
		{"cache+index", 4, true, 2},
	}

	for _, machines := range []int{1, 3, 9} {
		spec := workload.Spec{
			N: nObjects, Machines: machines,
			StructureMachines: structure, Seed: seed,
		}
		type built struct {
			c *SimCluster
			d *workload.Dataset
		}
		clusters := make([]built, len(modes))
		for i, m := range modes {
			c := NewSim(machines, Options{Cost: sim.Free(), PlanCache: m.cache, Index: m.index})
			d, err := workload.Build(c, spec)
			if err != nil {
				t.Fatalf("%d sites, %s: %v", machines, m.name, err)
			}
			clusters[i] = built{c, d}
		}

		for qi, q := range queries {
			base, _, err := clusters[0].c.Exec(1, q, []object.ID{clusters[0].d.Root})
			if err != nil {
				t.Fatalf("%d sites, baseline, query %d: %v", machines, qi, err)
			}
			for mi := 1; mi < len(modes); mi++ {
				m := modes[mi]
				for round := 0; round < m.rounds; round++ {
					res, _, err := clusters[mi].c.Exec(1, q, []object.ID{clusters[mi].d.Root})
					if err != nil {
						t.Fatalf("%d sites, %s, query %d round %d: %v", machines, m.name, qi, round, err)
					}
					if !equalIDs(base.IDs, res.IDs) {
						t.Fatalf("%d sites, %s, query %d round %d: answer changed: %d ids vs baseline %d",
							machines, m.name, qi, round, len(res.IDs), len(base.IDs))
					}
					if !equalSites(base.Unreachable, res.Unreachable) || base.Partial != res.Partial {
						t.Fatalf("%d sites, %s, query %d round %d: unreachable annotations changed",
							machines, m.name, qi, round)
					}
				}
			}
		}

		// The matrix must actually exercise the machinery it claims to test.
		for mi, m := range modes {
			st := clusters[mi].c.TotalStats()
			if m.cache > 0 && st.PlanCacheHits == 0 {
				t.Errorf("%d sites, %s: plan cache enabled but never hit", machines, m.name)
			}
			if m.cache == 0 && st.PlanCacheHits != 0 {
				t.Errorf("%d sites, %s: cache hits with no cache", machines, m.name)
			}
			if m.index && st.Engine.IndexProbes == 0 {
				t.Errorf("%d sites, %s: index enabled but never probed", machines, m.name)
			}
			if !m.index && st.Engine.IndexProbes != 0 {
				t.Errorf("%d sites, %s: index probes with no index", machines, m.name)
			}
		}
	}
}

// TestBatchingConservesTerminationWeightUnderChaos wraps every detector in
// the conservation checker and runs batched queries over a lossy, duplicating,
// reordering network. Reliable delivery retransmits drops and dedups
// duplicates before site logic, so the weighted credits must sum to exactly 1
// after every single detector event — in particular, each batch message must
// carry exactly one credit share, and the flush-before-idle rule must hold
// (queued work while a site reports idle would show up here as a dip below 1).
// The fabric decodes every token borrowed, and redelivered copies alias one
// frame, so a credit lost or double-counted through pooled scratch or a
// shared token would also surface here.
func TestBatchingConservesTerminationWeightUnderChaos(t *testing.T) {
	audit := termination.NewAudit()
	c := NewLocal(3, Options{
		DerefBatch: 4,
		TermAudit:  audit,
		Chaos: &chaos.Config{
			Seed: 21, DropRate: 0.10, DupRate: 0.10,
			DelayRate: 0.30, MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond,
			ReorderRate: 0.20,
		},
	})
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{N: 60, Machines: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range equivCases()[:5] {
		res, err := c.Exec(object.SiteID(qi%3+1), q, []object.ID{d.Root}, 30*time.Second)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if res.Partial {
			t.Fatalf("query %d: partial answer with no dead sites", qi)
		}
		if err := audit.Err(); err != nil {
			t.Fatalf("after query %d: %v", qi, err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("internal error: %v", err)
	}
	if audit.Events() == 0 {
		t.Fatal("audit never saw a detector event")
	}
	t.Logf("conservation held across %d detector events", audit.Events())
}

func equalIDs(a, b []object.ID) bool {
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

func equalSites(a, b []object.SiteID) bool {
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

func equalIndexSets(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestSimScale runs a closure over a 5000-object dataset on 9 sites: a
// regression guard against super-linear blowups in the engine, the sim
// event loop, or the protocol (finishes in well under a second of real
// time).
func TestSimScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale")
	}
	c := NewSim(9, Options{Cost: sim.Paper()})
	d, err := workload.Build(c, workload.Spec{N: 5000, Machines: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, rt, err := c.Exec(1, workload.ClosureQuery("Tree", "Rand10", 5), []object.ID{d.Root})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if len(res.IDs) < 300 || len(res.IDs) > 700 {
		t.Errorf("results = %d, expected ~10%% of 5000", len(res.IDs))
	}
	// Virtual time ~ 5000/9 objects * 8ms + result install; sanity-bound it.
	if rt < 4*time.Second || rt > 60*time.Second {
		t.Errorf("virtual response time = %v", rt)
	}
	if wall > 20*time.Second {
		t.Errorf("real time = %v: something is super-linear", wall)
	}
	t.Logf("5000 objects over 9 sites: %v virtual, %v real", rt, wall)
}

// TestLocalClusterSoak hammers a cluster with concurrent randomized queries
// and verifies every answer against precomputed expectations.
func TestLocalClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const machines = 5
	c := NewLocal(machines, Options{})
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{N: 100, Machines: machines, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// Expected result count per (pointer key, class key): run each query
	// once sequentially first.
	type qcase struct {
		body string
		want int
	}
	rng := rand.New(rand.NewSource(3))
	var cases []qcase
	for i := 0; i < 8; i++ {
		ptr := []string{"Tree", "Chain", "Rand80"}[i%3]
		key := 1 + rng.Intn(10)
		body := workload.ClosureQuery(ptr, "Rand10", key)
		res, err := c.Exec(1, body, []object.ID{d.Root}, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, qcase{body: body, want: len(res.IDs)})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qc := cases[(w+i)%len(cases)]
				origin := object.SiteID((w+i)%machines + 1)
				res, err := c.Exec(origin, qc.body, []object.ID{d.Root}, 30*time.Second)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if len(res.IDs) != qc.want {
					errs <- fmt.Errorf("worker %d: %s returned %d, want %d",
						w, qc.body, len(res.IDs), qc.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}
