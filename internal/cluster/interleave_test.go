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
	"hyperfile/internal/waitfor"
	"hyperfile/internal/workload"
)

// TestSchedulerInterleaveStress hammers a 3-site cluster in two phases
// sharing one cluster under a lossy, duplicating, reordering network.
//
// Phase one is the interleave hammer: twelve concurrent streams run the same
// distributed query, and every completed answer must be byte-identical to the
// quiet-cluster answer — interleaved queries and chaos reordering must never
// change a result.
//
// Phase two is the fairness window, run on an all-local dataset so the
// contexts contend for the stepper rather than the network (the round robin
// arbitrates CPU; a network-bound context is absent from the ready queue and
// there is nothing to arbitrate). A greedy client keeps ten streams in flight
// against a light client's two, every stream running the same query. Round
// robin over clients serves the two client lanes equally, so the light
// client must complete at least 30% of the window's queries — round robin
// over contexts would give it 2/12 — while its p99 latency stays bounded.
// The window closes on a completion count, not a clock: a greedy query takes
// about five light ones, and the greedy client's ten queries finish together,
// so a short window (say, under the race detector) could close before the
// first greedy burst and read any share at all.
//
// The package-wide leaktest.Main fails the binary if any site goroutine
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
		// window is how many completions the fairness window counts: about
		// three rounds of the greedy client's ten, and as many light ones.
		window = 64
	)
	c := NewLocal(machines, Options{
		Chaos: &chaos.Config{
			Seed: 37, DropRate: 0.05, DupRate: 0.05,
			DelayRate: 0.20, MinDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
			ReorderRate: 0.20,
		},
	})
	defer c.Close()
	// Distributed dataset for the interleave hammer; all-local dataset
	// (every object on the origin site) for the fairness window. The local
	// dataset is large so each query's fixed start and finish costs stay
	// small beside its steps: at 2000 objects the light share once fell to
	// 0.23-0.30 with the rest of the suite running on a two-core machine; at
	// 10000 it reads 0.53 there.
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
		// done counts each client's completed queries in the fairness
		// window, which opens with windowOpen and takes the first window
		// completions after it (counted stays at window once it closes).
		done       = map[uint64]*int64{}
		windowOpen atomic.Bool
		counted    atomic.Int64
		errs       = make(chan error, greedyStreams+lightStreams+1)
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
	// closes, checking every answer and counting completions per client;
	// when collect is set, per-query latencies are recorded.
	streams := func(wg *sync.WaitGroup, stop chan struct{}, n int, clientID uint64,
		who string, q string, root object.ID, wantIDs []object.ID, collect bool) {
		count := new(int64)
		done[clientID] = count
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
					inWindow := windowOpen.Load() && counted.Add(1) <= window
					if inWindow {
						atomic.AddInt64(count, 1)
					}
					if collect && inWindow {
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

	// Phase two: fairness window on the all-local dataset, with client ids of
	// its own.
	const greedyID, lightID = uint64(3), uint64(4)
	var wgF sync.WaitGroup
	stopF := make(chan struct{})
	streams(&wgF, stopF, greedyStreams, greedyID, "fair-greedy", localQ, dLocal.Root, wantLocal.IDs, false)
	streams(&wgF, stopF, lightStreams, lightID, "fair-light", localQ, dLocal.Root, wantLocal.IDs, true)
	// lint:ignore baresleep fixed warmup before the measurement window opens, not a condition wait
	time.Sleep(warmup)
	windowOpen.Store(true)
	windowErr := waitfor.Until(time.Minute, func() bool { return counted.Load() >= window })
	close(stopF)
	wgF.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("internal error: %v", err)
	}
	if windowErr != nil {
		t.Fatalf("fairness window: %d of %d completions: %v", counted.Load(), window, windowErr)
	}

	greedy, light := atomic.LoadInt64(done[greedyID]), atomic.LoadInt64(done[lightID])
	share := float64(light) / float64(greedy+light)
	t.Logf("fairness window completions: greedy %d, light %d (light share %.2f); total answers %d",
		greedy, light, share, atomic.LoadInt64(&answers))
	if share < 0.30 {
		t.Errorf("light client completed %.2f of the window's queries, want >= 0.30 (per client ~0.5, per context 2/12)", share)
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
		t.Error("FairDeferred = 0: no client ever waited on another's turn under contention")
	}
}
