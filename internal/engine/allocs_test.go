//go:build !race

package engine

import (
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
	"hyperfile/internal/workload"
)

// onePlacer puts a whole workload dataset on one store.
type onePlacer struct{ st *store.Store }

func (p onePlacer) Sites() []object.SiteID                      { return []object.SiteID{1} }
func (p onePlacer) Store(object.SiteID) *store.Store            { return p.st }
func (p onePlacer) Put(_ object.SiteID, o *object.Object) error { return p.st.Put(o) }

// maxAllocsPerObject bounds the allocations one query over a 300-object
// paper tree makes per object it processes, with every object a result:
// building the engine, the drain, TakeResults and ReleaseScratch, over
// warmed pools. Measured on linux/amd64 (go1.24): 16 allocations, 0.05 per
// object — the engine, the results slice's doublings and the first binds
// into the environment. A map result set, a fresh binding slice per object
// and an iteration stack per child measured 1218, 4.06 per object.
const maxAllocsPerObject = 0.1

// TestDrainAllocsPerObject pins the per-object path at no allocation in the
// steady state, drained one item at a time (Step) and in runs (StepN, as a
// server steps): a step rebinds into the engine's environment, its marks
// set bits in one mark word, and a result is an append.
func TestDrainAllocsPerObject(t *testing.T) {
	st := store.New(1)
	d, err := workload.Build(onePlacer{st}, workload.Spec{N: 300, Machines: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := query.MustCompile(workload.ClosureQueryKeyword("Tree", "Common", "all"))
	for _, tc := range []struct {
		name  string
		drain func(e *Engine) int
	}{
		{"Step", func(e *Engine) int { return e.Run().Processed }},
		{"StepN", func(e *Engine) int {
			n := 0
			for r := e.StepN(16); r.Steps > 0; r = e.StepN(16) {
				n += r.Stats.Processed
			}
			return n
		}},
	} {
		var processed, results int
		drain := func() {
			e := New(c, st)
			e.AddInitial(d.Root)
			processed = tc.drain(e)
			ids, _ := e.TakeResults()
			results = len(ids)
			e.ReleaseScratch()
		}
		drain() // warm the work, environment and mark-table pools
		allocs := testing.AllocsPerRun(20, drain)
		if processed != 300 || results != 300 {
			t.Fatalf("%s: drain processed %d objects and found %d results, want 300 each", tc.name, processed, results)
		}
		if per := allocs / float64(processed); per > maxAllocsPerObject {
			t.Errorf("%s: %.0f allocs over %d objects = %.2f per object, want <= %.2f", tc.name, allocs, processed, per, maxAllocsPerObject)
		}
	}
}
