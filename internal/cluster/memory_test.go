package cluster

import (
	"fmt"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// TestMemoryModelEquivalence is the memory model's acceptance matrix: every
// query class runs on 1, 3, and 9 sites through the simulator, the goroutine
// runner's direct hand-off (which never encodes), and the goroutine runner's
// encoding fabric (a fault-free chaos network, so every inter-site message is
// decoded borrowed over the sender's frame). All three must return
// byte-identical sorted result-id sets. The simulator additionally runs
// twice, the second time on pooled tables and scratch the first run released:
// recycled storage must make every decision fresh storage did — same dedup
// skips, same suppressed derefs, same message counts — so a mark or
// sent-cache entry surviving a release would show up as a statistics
// mismatch even if the answer survived. Deref batching is on so the
// sent-cache path is actually exercised.
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
			c := NewSim(machines, Options{Cost: sim.Free(), DerefBatch: batchSize})
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

		var direct, fabric *LocalCluster
		var dDirect, dFabric *workload.Dataset
		if machines == 3 || machines == 9 {
			direct = NewLocal(machines, Options{DerefBatch: batchSize})
			defer direct.Close()
			fabric = NewLocal(machines, Options{DerefBatch: batchSize, Chaos: &chaos.Config{Seed: 1}})
			defer fabric.Close()
			var err error
			if dDirect, err = workload.Build(direct, spec); err != nil {
				t.Fatal(err)
			}
			if dFabric, err = workload.Build(fabric, spec); err != nil {
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

			if direct != nil {
				ld, err := direct.Exec(1, q, []object.ID{dDirect.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local direct: %v", name, err)
				}
				lf, err := fabric.Exec(1, q, []object.ID{dFabric.Root}, 30*time.Second)
				if err != nil {
					t.Fatalf("%s: local fabric: %v", name, err)
				}
				if !equalIDs(want.IDs, ld.IDs) || !equalIDs(want.IDs, lf.IDs) {
					t.Fatalf("%s: goroutine runner disagrees with simulator (%d direct / %d fabric vs %d ids)",
						name, len(ld.IDs), len(lf.IDs), len(want.IDs))
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

// TestTakeZeroesVacatedMailboxSlot: the mailbox advances by reslicing, so the
// consumed thunk must be cleared or the backing array keeps pinning its
// captured message (and, on the fabric, the whole frame it borrows from)
// until the next reallocation.
func TestTakeZeroesVacatedMailboxSlot(t *testing.T) {
	ls := &localSite{}
	thunk := func(*site.Site) []wire.Envelope { return nil }
	ls.mailbox = []func(*site.Site) []wire.Envelope{thunk, thunk}
	backing := ls.mailbox
	if f, ok := ls.take(); !ok || f == nil {
		t.Fatal("take returned nothing from a non-empty mailbox")
	}
	if backing[0] != nil {
		t.Fatal("vacated slot still holds the consumed thunk")
	}
	if backing[1] == nil || len(ls.mailbox) != 1 {
		t.Fatal("take disturbed the queued entry")
	}
}
