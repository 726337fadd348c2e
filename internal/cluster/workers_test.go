package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/termination"
	"hyperfile/internal/workload"
)

// TestWorkerPoolEquivalence is the worker-pool acceptance suite: every query
// class runs on 1, 3, and 9 sites with a single-threaded stepper and with a
// four-worker pool, and the pool must return byte-identical sorted result-id
// sets and identical unreachable annotations — parallel stepping is a pure
// scheduling change, invisible in the answer. The pooled run is wrapped in
// the termination-conservation audit (credits must sum to exactly 1 after
// every detector event even when steps interleave), a combined row stacks the
// pool on top of batching, the plan cache, the index, and admission bounds,
// and on the 3- and 9-site rows the goroutine runner — with a real 4-worker
// pool, and with the full combined feature stack — must agree with the
// simulator.
func TestWorkerPoolEquivalence(t *testing.T) {
	const (
		nObjects  = 120
		structure = 9
		seed      = 11
	)
	queries := equivCases()

	for _, machines := range []int{1, 3, 9} {
		spec := workload.Spec{
			N: nObjects, Machines: machines,
			StructureMachines: structure, Seed: seed,
		}
		build := func(name string, opts Options) (*SimCluster, *workload.Dataset) {
			c := NewSim(machines, opts)
			d, err := workload.Build(c, spec)
			if err != nil {
				t.Fatalf("%d sites, %s: %v", machines, name, err)
			}
			return c, d
		}
		base, dBase := build("baseline", Options{Cost: sim.Free(), DerefBatch: site.Unbatched})
		audit := termination.NewAudit()
		pooled, dPooled := build("workers=4", Options{
			Cost: sim.Free(), Workers: 4, TermAudit: audit,
		})
		combined, dComb := build("combined", Options{
			Cost: sim.Free(), Workers: 4, DerefBatch: 8,
			PlanCache: 4, Index: true,
			MaxInflight: 8, AdmissionQueue: 4,
		})

		var loc, locComb *LocalCluster
		var dLoc, dLocComb *workload.Dataset
		if machines == 3 || machines == 9 {
			loc = NewLocal(machines, Options{Workers: 4})
			defer loc.Close()
			locComb = NewLocal(machines, Options{
				Workers: 4, DerefBatch: 8,
				PlanCache: 4, Index: true,
				MaxInflight: 8, AdmissionQueue: 4,
			})
			defer locComb.Close()
			var err error
			if dLoc, err = workload.Build(loc, spec); err != nil {
				t.Fatal(err)
			}
			if dLocComb, err = workload.Build(locComb, spec); err != nil {
				t.Fatal(err)
			}
		}

		for qi, q := range queries {
			name := fmt.Sprintf("%d sites, query %d (%s)", machines, qi, q)
			resB, _, err := base.Exec(1, q, []object.ID{dBase.Root})
			if err != nil {
				t.Fatalf("%s: baseline: %v", name, err)
			}
			resP, _, err := pooled.Exec(1, q, []object.ID{dPooled.Root})
			if err != nil {
				t.Fatalf("%s: workers=4: %v", name, err)
			}
			// Complete messages carry sorted ids, so slice equality is the
			// byte-identical check.
			if !equalIDs(resB.IDs, resP.IDs) {
				t.Fatalf("%s: worker pool changed the answer: %d ids vs %d",
					name, len(resP.IDs), len(resB.IDs))
			}
			if !equalSites(resB.Unreachable, resP.Unreachable) || resB.Partial != resP.Partial {
				t.Fatalf("%s: worker pool changed unreachable annotations: %v/%v vs %v/%v",
					name, resP.Unreachable, resP.Partial, resB.Unreachable, resB.Partial)
			}
			if err := audit.Err(); err != nil {
				t.Fatalf("%s: termination credit not conserved: %v", name, err)
			}
			// Two rounds on the combined cluster: the second is served from
			// the plan cache at every involved site.
			for round := 0; round < 2; round++ {
				resC, _, err := combined.Exec(1, q, []object.ID{dComb.Root})
				if err != nil {
					t.Fatalf("%s: combined round %d: %v", name, round, err)
				}
				if !equalIDs(resB.IDs, resC.IDs) {
					t.Fatalf("%s: combined round %d changed the answer: %d ids vs %d",
						name, round, len(resC.IDs), len(resB.IDs))
				}
				if !equalSites(resB.Unreachable, resC.Unreachable) || resB.Partial != resC.Partial {
					t.Fatalf("%s: combined round %d changed unreachable annotations", name, round)
				}
			}
			if loc != nil {
				lr, err := loc.Exec(1, q, []object.ID{dLoc.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local workers=4: %v", name, err)
				}
				if !equalIDs(resB.IDs, lr.IDs) {
					t.Fatalf("%s: goroutine runner with pool disagrees with simulator (%d vs %d ids)",
						name, len(lr.IDs), len(resB.IDs))
				}
				lc, err := locComb.Exec(1, q, []object.ID{dLocComb.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local combined: %v", name, err)
				}
				if !equalIDs(resB.IDs, lc.IDs) {
					t.Fatalf("%s: goroutine runner with the full feature stack disagrees with simulator (%d vs %d ids)",
						name, len(lc.IDs), len(resB.IDs))
				}
			}
		}

		if audit.Events() == 0 {
			t.Errorf("%d sites: audit never saw a detector event", machines)
		}
		// The combined row must actually exercise the machinery it stacks.
		st := combined.TotalStats()
		if st.PlanCacheHits == 0 {
			t.Errorf("%d sites: combined row never hit the plan cache", machines)
		}
		if st.Engine.IndexProbes == 0 {
			t.Errorf("%d sites: combined row never probed the index", machines)
		}
		if machines > 1 && st.DerefsBatched == 0 && st.DerefsSuppressed == 0 {
			t.Errorf("%d sites: combined row never batched or suppressed a Deref", machines)
		}
	}
}

// TestWorkerPoolSpeedsUpVirtualTime pins the point of the pool in the model
// the benchmarks use: a batch of independent queries finishes sooner in
// virtual time with four step slots than with one, while a single query —
// pinned to one worker at a time — gains nothing.
func TestWorkerPoolSpeedsUpVirtualTime(t *testing.T) {
	const machines = 3
	spec := workload.Spec{N: 120, Machines: machines, StructureMachines: 9, Seed: 11}
	run := func(workers, queries int) time.Duration {
		c := NewSim(machines, Options{Cost: sim.Paper(), Workers: workers})
		d, err := workload.Build(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]BatchQuery, queries)
		for i := range batch {
			batch[i] = BatchQuery{
				Origin:  object.SiteID(i%machines + 1),
				Body:    workload.ClosureQuery("Tree", "Rand10", 5),
				Initial: []object.ID{d.Root},
			}
		}
		if _, _, err := c.ExecBatch(batch); err != nil {
			t.Fatal(err)
		}
		return c.Now()
	}

	serial := run(1, 8)
	pooled := run(4, 8)
	if pooled >= serial {
		t.Errorf("8-query batch: workers=4 makespan %v not faster than workers=1 %v", pooled, serial)
	}
	one1 := run(1, 1)
	one4 := run(4, 1)
	// Per-context pinning: a lone query must not speed up (small deviations
	// come from message handling landing on different slots).
	if one4 < one1*8/10 {
		t.Errorf("single query: workers=4 makespan %v below workers=1 %v — a context overlapped itself", one4, one1)
	}
}

// TestSchedulerInterleaveStress hammers a 3-site cluster with a 4-worker pool
// per site, in two phases sharing one cluster under a lossy, duplicating,
// reordering network.
//
// Phase one is the interleave hammer: twelve concurrent streams run the same
// distributed query, and every completed answer must be byte-identical to the
// quiet-cluster answer — worker interleaving and chaos reordering must never
// change a result.
//
// Phase two is the fairness window, run on an all-local dataset so the
// contexts contend for the stepper rather than the network (deficit round
// robin arbitrates CPU; a network-bound context is absent from the ready
// queue and there is nothing to arbitrate). A greedy client keeps ten streams
// in flight against a light client's two; DRR serves the two client buckets
// equally, so the greedy client is bounded to roughly its quantum-
// proportional half of the attributed engine steps — the light client must
// collect at least 30% (per-context FIFO round robin would give it ~17%) —
// while the light client's p99 latency stays bounded.
//
// The package-wide leaktest.Main fails the binary if any site worker
// outlives Close.
func TestSchedulerInterleaveStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	const (
		machines      = 3
		origin        = object.SiteID(1)
		greedyStreams = 10
		lightStreams  = 2
		hammer        = 800 * time.Millisecond
		warmup        = 200 * time.Millisecond
		window        = 1200 * time.Millisecond
	)
	c := NewLocal(machines, Options{
		Workers:     4,
		FairQuantum: 2,
		Chaos: &chaos.Config{
			Seed: 37, DropRate: 0.05, DupRate: 0.05,
			DelayRate: 0.20, MinDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
			ReorderRate: 0.20,
		},
	})
	defer c.Close()
	// Distributed dataset for the interleave hammer; all-local dataset
	// (every object on the origin site) for the fairness window.
	dDist, err := workload.Build(c, workload.Spec{N: 90, Machines: machines, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	dLocal, err := workload.Build(c, workload.Spec{N: 10000, Machines: 1, StructureMachines: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	distQ := workload.ClosureQuery("Rand05", "Rand10", 5)
	localQ := workload.ClosureQuery("Tree", "Rand10", 5)
	wantDist, err := c.Exec(origin, distQ, []object.ID{dDist.Root}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wantLocal, err := c.Exec(origin, localQ, []object.ID{dLocal.Root}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		latency []time.Duration
		answers int64
		errs    = make(chan error, greedyStreams+lightStreams+1)
	)
	check := func(who string, wantIDs []object.ID, res *Result, err error) bool {
		switch {
		case err != nil:
			errs <- fmt.Errorf("%s: %v", who, err)
			return false
		case !equalIDs(wantIDs, res.IDs):
			errs <- fmt.Errorf("%s: answer changed under load: %d ids, want %d",
				who, len(res.IDs), len(wantIDs))
			return false
		}
		atomic.AddInt64(&answers, 1)
		return true
	}
	// streams runs n concurrent client streams of the same query until stop
	// closes, checking every answer; when collect is set, per-query latencies
	// are recorded.
	streams := func(wg *sync.WaitGroup, stop chan struct{}, n int, clientID uint64,
		who string, q string, root object.ID, wantIDs []object.ID, collect bool) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					res, err := c.ExecAs(clientID, origin, q, []object.ID{root}, 30*time.Second)
					if !check(who, wantIDs, res, err) {
						return
					}
					if collect {
						mu.Lock()
						latency = append(latency, time.Since(t0))
						mu.Unlock()
					}
				}
			}()
		}
	}

	// Phase one: distributed interleave hammer under chaos.
	var wgH sync.WaitGroup
	stopH := make(chan struct{})
	streams(&wgH, stopH, greedyStreams, 1, "hammer-greedy", distQ, dDist.Root, wantDist.IDs, false)
	streams(&wgH, stopH, lightStreams, 2, "hammer-light", distQ, dDist.Root, wantDist.IDs, false)
	// lint:ignore baresleep fixed-duration load window, not a condition wait — the hammer runs for exactly this long
	time.Sleep(hammer)
	close(stopH)
	wgH.Wait()
	hammered := atomic.LoadInt64(&answers)
	if hammered < 20 {
		t.Fatalf("interleave hammer completed only %d answers; stress exercised nothing", hammered)
	}

	// Phase two: fairness window on the all-local dataset, fresh client ids
	// so the step counters cover only this phase.
	const greedyID, lightID = uint64(3), uint64(4)
	var wgF sync.WaitGroup
	stopF := make(chan struct{})
	streams(&wgF, stopF, greedyStreams, greedyID, "fair-greedy", localQ, dLocal.Root, wantLocal.IDs, false)
	streams(&wgF, stopF, lightStreams, lightID, "fair-light", localQ, dLocal.Root, wantLocal.IDs, true)
	// lint:ignore baresleep fixed warmup before the measurement window opens, not a condition wait
	time.Sleep(warmup)
	reg := c.Metrics(origin)
	g0 := reg.Counter(fmt.Sprintf("hf_client_%d_steps", greedyID)).Load()
	l0 := reg.Counter(fmt.Sprintf("hf_client_%d_steps", lightID)).Load()
	mu.Lock()
	latency = nil // measure latency over the window only
	mu.Unlock()
	// lint:ignore baresleep fixed-duration measurement window — step shares are compared over exactly this interval
	time.Sleep(window)
	g1 := reg.Counter(fmt.Sprintf("hf_client_%d_steps", greedyID)).Load()
	l1 := reg.Counter(fmt.Sprintf("hf_client_%d_steps", lightID)).Load()
	close(stopF)
	wgF.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("internal error: %v", err)
	}

	greedy, light := g1-g0, l1-l0
	if greedy+light == 0 {
		t.Fatal("no attributed steps in the fairness window")
	}
	share := float64(light) / float64(greedy+light)
	t.Logf("fairness window steps: greedy %d, light %d (light share %.2f); total answers %d",
		greedy, light, share, atomic.LoadInt64(&answers))
	if share < 0.30 {
		t.Errorf("light client got %.2f of attributed steps, want >= 0.30 (DRR ~0.5, FIFO ~0.17)", share)
	}
	// Fairness must also show up where the client feels it: tail latency.
	mu.Lock()
	lat := append([]time.Duration(nil), latency...)
	mu.Unlock()
	if len(lat) == 0 {
		t.Fatal("light client completed no queries in the fairness window")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	t.Logf("light client: %d queries in window, p99 latency %v", len(lat), p99)
	if p99 > 10*time.Second {
		t.Errorf("light client p99 latency %v; starved behind the greedy burst", p99)
	}
	if c.SiteStats(origin).FairDeferred == 0 {
		t.Error("FairDeferred = 0: the DRR scheduler never deferred anyone under contention")
	}
}
