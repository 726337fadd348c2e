package cluster

import (
	"fmt"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// TestMemoryModelEquivalence is the memory model's acceptance matrix: every
// query class runs on 1, 3, and 9 sites through the simulator and through the
// goroutine runner, whose servers talk over loopback transport.TCP (so every
// message is decoded borrowed over a pooled read buffer, poisoned on release
// under -race). Both must return byte-identical sorted result-id sets. The
// simulator additionally runs twice, the second time on pooled tables and
// scratch the first run released: recycled storage must make every decision
// fresh storage did — same dedup skips, same suppressed derefs, same message
// counts — so a mark or sent-cache entry surviving a release would show up as
// a statistics mismatch even if the answer survived. Deref batching is on so
// the sent-cache path is actually exercised.
func TestMemoryModelEquivalence(t *testing.T) {
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

		build := func() (*SimCluster, *workload.Dataset) {
			c := NewSim(machines, Options{Cost: sim.Free(), Tuning: site.Tuning{DerefBatch: batchSize}})
			d, err := workload.Build(c, spec)
			if err != nil {
				t.Fatalf("%d sites: %v", machines, err)
			}
			return c, d
		}
		fresh, dFresh := build()
		recycled, dRecycled := build()

		// id -> logical index, for the cross-topology comparison.
		idx := make(map[object.ID]int, len(dFresh.IDs))
		for i, id := range dFresh.IDs {
			idx[id] = i
		}

		var local *LocalCluster
		var dLocal *workload.Dataset
		if machines == 3 || machines == 9 {
			local = NewLocal(machines, Options{Tuning: site.Tuning{DerefBatch: batchSize}})
			defer local.Close()
			var err error
			if dLocal, err = workload.Build(local, spec); err != nil {
				t.Fatal(err)
			}
		}

		// The fresh run goes first in full, so the recycled run draws the
		// storage it released.
		answers := make([]*Result, len(queries))
		for qi, q := range queries {
			res, _, err := fresh.Exec(1, q, []object.ID{dFresh.Root})
			if err != nil {
				t.Fatalf("%d sites, query %d (%s): %v", machines, qi, q, err)
			}
			answers[qi] = res
		}

		for qi, q := range queries {
			name := fmt.Sprintf("%d sites, query %d (%s)", machines, qi, q)
			want := answers[qi]
			got, _, err := recycled.Exec(1, q, []object.ID{dRecycled.Root})
			if err != nil {
				t.Fatalf("%s: recycled storage: %v", name, err)
			}
			// Complete messages carry sorted ids, so slice equality is the
			// byte-identical check.
			if !equalIDs(want.IDs, got.IDs) {
				t.Fatalf("%s: recycled storage changed the answer: %d ids vs %d",
					name, len(got.IDs), len(want.IDs))
			}
			if !equalSites(want.Unreachable, got.Unreachable) || want.Partial != got.Partial {
				t.Fatalf("%s: recycled storage changed unreachable annotations", name)
			}

			// Cross-topology: same logical answer regardless of placement.
			set := make(map[int]bool, len(want.IDs))
			for _, id := range want.IDs {
				li, ok := idx[id]
				if !ok {
					t.Fatalf("%s: result %v is not a generated object", name, id)
				}
				set[li] = true
			}
			if logical[qi] == nil {
				logical[qi] = set
			} else if !equalIndexSets(logical[qi], set) {
				t.Fatalf("%s: logical answer differs from previous topology", name)
			}

			if local != nil {
				lr, err := local.Exec(1, q, []object.ID{dLocal.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local: %v", name, err)
				}
				if !equalIDs(want.IDs, lr.IDs) {
					t.Fatalf("%s: goroutine runner disagrees with simulator (%d vs %d ids)",
						name, len(lr.IDs), len(want.IDs))
				}
			}
		}

		if fs, rs := fresh.TotalStats(), recycled.TotalStats(); fs != rs {
			t.Errorf("%d sites: recycled storage changed protocol statistics:\nfresh    %+v\nrecycled %+v",
				machines, fs, rs)
		}
		if st := fresh.TotalStats(); machines > 1 && st.DerefsSuppressed == 0 {
			t.Errorf("%d sites: sent-cache never suppressed a deref; matrix is not exercising it", machines)
		}
	}
}
