package site

import (
	"fmt"
	"slices"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// harnessPlacer lets the workload generators build into a harness's stores.
type harnessPlacer struct{ h *harness }

func (p harnessPlacer) Sites() []object.SiteID {
	ids := make([]object.SiteID, 0, len(p.h.sites))
	for id := range p.h.sites {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
func (p harnessPlacer) Store(id object.SiteID) *store.Store { return p.h.store(id) }
func (p harnessPlacer) Put(id object.SiteID, o *object.Object) error {
	return p.h.store(id).Put(o)
}

// shippedDeref is one Deref a site's step shipped: where to, what, and after
// how many of the sender's items. hold marks a partial batch shipped while
// the sender still had work, which only the FlushEvery hold does.
type shippedDeref struct {
	from, to object.SiteID
	step     int
	start    int
	ids      []object.ID
	hold     bool
}

// runTrace is everything a differential run compares.
type runTrace struct {
	answers [][]object.ID
	spans   []string
	derefs  []shippedDeref
	stats   map[object.SiteID]Stats
}

// runQueries runs each query to completion on a fresh harness, stepping every
// site in id order until it has no work, one item per Step (limit 0) or in
// StepN runs of up to limit items, and records what the sites shipped.
func runQueries(t *testing.T, sites int, build func(*harness) []stepNQuery, limit int) runTrace {
	t.Helper()
	h := newHarness(t, sites, func(c *Config) { c.Traces = NewTraceBuffer(0) })
	queries := build(h)
	tr := runTrace{stats: map[object.SiteID]Stats{}}
	steps := map[object.SiteID]int{}
	ids := harnessPlacer{h}.Sites()
	for i, q := range queries {
		h.submit(wire.QueryID{Origin: q.origin, Seq: uint64(i + 1)}, q.body, q.initial)
		for progress := true; progress; {
			progress = false
			for _, id := range ids {
				s := h.sites[id]
				for {
					var n int
					var envs []wire.Envelope
					var err error
					if limit == 0 {
						var did bool
						if _, envs, did, err = s.Step(); did {
							n = 1
						}
					} else {
						n, envs, err = s.StepN(limit)
					}
					if err != nil {
						t.Fatalf("step at %v: %v", id, err)
					}
					if n == 0 {
						break
					}
					progress = true
					steps[id] += n
					more := s.HasWork()
					for _, env := range envs {
						if d, ok := env.Msg.(*wire.Deref); ok {
							tr.derefs = append(tr.derefs, shippedDeref{
								from: id, to: env.To, step: steps[id], start: d.Start,
								ids: slices.Clone(d.ObjIDs), hold: more && len(d.ObjIDs) < DerefBatchSize,
							})
						}
					}
					h.deliver(id, envs)
				}
			}
		}
		if len(h.completes) != 1 {
			t.Fatalf("query %d: %d completions", i+1, len(h.completes))
		}
		cm := h.completes[0]
		h.completes = nil
		if cm.Partial || cm.Err != "" {
			t.Fatalf("query %d: partial %v err %q", i+1, cm.Partial, cm.Err)
		}
		tr.answers = append(tr.answers, cm.IDs)
	}
	rings := make(map[object.SiteID][]TraceEntry)
	for _, id := range ids {
		rings[id] = h.sites[id].cfg.Traces.Entries()
	}
	for _, e := range MergeTraces(rings) {
		for _, sp := range e.Spans {
			tr.spans = append(tr.spans, fmt.Sprintf("q%d site %v hop %d filter %d in %d out %d", e.QID.Seq, sp.Site, sp.Hop, sp.Filter, sp.In, sp.Out))
		}
	}
	slices.Sort(tr.spans)
	for _, id := range ids {
		tr.stats[id] = h.sites[id].Stats()
	}
	return tr
}

type stepNQuery struct {
	origin  object.SiteID
	body    string
	initial []object.ID
}

// TestStepNMatchesStepAtSites runs the same queries once with one-item
// Steps and once with FlushEvery-item StepN runs, on a one-site paper tree
// and on a 300-object region tree scattered over three sites. Everything the
// protocol and the observability surface can see must be identical: the
// answers, every site's Stats (engine counters included), each Deref shipped
// (sender, destination, start, ids, order, and after which of the sender's
// items, so the hold fires on the same item), and the per-filter spans.
func TestStepNMatchesStepAtSites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sites int
		build func(*harness) []stepNQuery
	}{
		{"one-site paper tree", 1, func(h *harness) []stepNQuery {
			d, err := workload.Build(harnessPlacer{h}, workload.Spec{N: 300, Machines: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return []stepNQuery{
				{1, workload.ClosureQueryKeyword("Tree", "Common", "all"), []object.ID{d.Root}},
				{1, `Root (Pointer, "Rand50", ?X) ^^X (Pointer, "Rand50", ?Y) ^^Y [ (Pointer, "Tree", ?Z) ^^Z ]** (Rand10, 3, ?) -> T`, []object.ID{d.Root}},
			}
		}},
		{"3-site scattered tree", 3, func(h *harness) []stepNQuery {
			d, err := workload.BuildRegions(harnessPlacer{h}, workload.RegionSpec{
				Objects: 300, Sites: 3, RegionSize: 300, LocalProb: 0, Seed: 4,
				HomeSite: func(int) int { return 1 },
			})
			if err != nil {
				t.Fatal(err)
			}
			root := d.Roots[0]
			return []stepNQuery{
				{root.Birth, `Root [ (Pointer, "Link", ?X) ^^X ]** (Sel, 3, ?) -> T`, []object.ID{root}},
				{root.Birth, `Root (Pointer, "Link", ?X) ^^X (Pointer, "Link", ?Y) ^^Y [ (Pointer, "Link", ?Z) ^^Z ]** (Sel, 5, ?) -> T`, []object.ID{root}},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := runQueries(t, tc.sites, tc.build, 0)
			runs := runQueries(t, tc.sites, tc.build, FlushEvery)
			for i := range one.answers {
				if len(one.answers[i]) == 0 || !slices.Equal(one.answers[i], runs.answers[i]) {
					t.Errorf("query %d: Step answer %v, StepN answer %v", i+1, one.answers[i], runs.answers[i])
				}
			}
			for id, st := range one.stats {
				if runs.stats[id] != st {
					t.Errorf("site %v: Step stats %+v, StepN stats %+v", id, st, runs.stats[id])
				}
			}
			if len(one.spans) == 0 || !slices.Equal(one.spans, runs.spans) {
				t.Errorf("spans differ:\nStep  %v\nStepN %v", one.spans, runs.spans)
			}
			if !slices.EqualFunc(one.derefs, runs.derefs, func(a, b shippedDeref) bool {
				return a.from == b.from && a.to == b.to && a.step == b.step && a.start == b.start &&
					a.hold == b.hold && slices.Equal(a.ids, b.ids)
			}) {
				t.Errorf("shipped Derefs differ:\nStep  %+v\nStepN %+v", one.derefs, runs.derefs)
			}
			if tc.sites > 1 {
				holds := 0
				for _, d := range one.derefs {
					if d.hold {
						holds++
					}
				}
				if len(one.derefs) == 0 || holds == 0 {
					t.Errorf("the fixture must ship Derefs and fire the hold: %d Derefs, %d holds", len(one.derefs), holds)
				}
			}
		})
	}
}

// TestStepNRunsUnderTwoClients: a second live client does not cut turns
// short. Every turn is still a run of FlushEvery items, and turns alternate
// between the two clients' lanes.
func TestStepNRunsUnderTwoClients(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.sites[1]
	submitLocal(t, h, 1, 1, 7, 80)
	submitLocal(t, h, 1, 2, 7, 80)
	for i := 0; i < 3; i++ {
		if n, _, err := s.StepN(FlushEvery); err != nil || n != FlushEvery {
			t.Fatalf("one client, turn %d: StepN took %d items (err %v), want %d", i, n, err, FlushEvery)
		}
	}
	light := submitLocal(t, h, 1, 3, 8, 40)
	var served []bool // whether each turn went to the second client
	for i := 0; i < 4; i++ {
		before := light.eng.Pending()
		if n, _, err := s.StepN(FlushEvery); err != nil || n != FlushEvery {
			t.Fatalf("two clients, turn %d: StepN took %d items (err %v), want %d", i, n, err, FlushEvery)
		}
		served = append(served, light.eng.Pending() < before)
	}
	for i := 1; i < len(served); i++ {
		if served[i] == served[i-1] {
			t.Fatalf("turns served the second client %v, want strict alternation", served)
		}
	}
	if got := light.eng.Pending(); got != 40-2*FlushEvery {
		t.Errorf("two clients: the second client's context has %d items left after 4 turns, want %d", got, 40-2*FlushEvery)
	}
}
