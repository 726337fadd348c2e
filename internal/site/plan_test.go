package site

import (
	"fmt"
	"slices"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// seedKeywordObjects puts n objects with a (k, "a", _) tuple on site 1 and
// returns their ids.
func seedKeywordObjects(t *testing.T, h *harness, n int) []object.ID {
	t.Helper()
	ids := make([]object.ID, n)
	for i := range ids {
		o := h.store(1).NewObject().Add("k", object.String("a"), object.Value{})
		if err := h.store(1).Put(o); err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID
	}
	return ids
}

// TestStepRoundRobinFairness pins the ready-queue scheduling contract: two
// contexts with equal work take strictly alternating turns, rather than one
// query draining completely while the other starves.
func TestStepRoundRobinFairness(t *testing.T) {
	h := newHarness(t, 1, nil)
	ids := seedKeywordObjects(t, h, 8)
	s := h.sites[1]

	for seq := uint64(1); seq <= 2; seq++ {
		sub := &wire.Submit{
			QID: wire.QueryID{Origin: 1, Seq: seq}, Client: client,
			Body: `S (k, "a", ?) -> T`, Initial: ids,
		}
		if _, err := s.HandleMessage(client, sub); err != nil {
			t.Fatal(err)
		}
	}

	var turns []uint64
	for {
		outcome, envs, progressed, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		h.deliver(1, envs)
		turns = append(turns, outcome.Query.Seq)
	}
	if len(turns) != 16 {
		t.Fatalf("took %d steps for 2 queries x 8 objects, want 16", len(turns))
	}
	for i := 1; i < len(turns); i++ {
		if turns[i] == turns[i-1] {
			t.Fatalf("steps %d and %d both advanced query %d: schedule %v is not round-robin",
				i-1, i, turns[i], turns)
		}
	}
	if len(h.completes) != 2 {
		t.Fatalf("%d completions, want 2", len(h.completes))
	}
}

// TestStepSkipsStaleReadyEntries: a context whose work disappears between
// queueing and stepping (here: drained by its own final step, then re-queued
// lazily) must not wedge or starve the other context.
func TestStepReportsNoWorkWhenDrained(t *testing.T) {
	h := newHarness(t, 1, nil)
	ids := seedKeywordObjects(t, h, 2)
	s := h.sites[1]
	sub := &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 1}, Client: client,
		Body: `S (k, "a", ?) -> T`, Initial: ids,
	}
	if _, err := s.HandleMessage(client, sub); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.HasWork() {
		_, envs, progressed, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			t.Fatal("HasWork true but Step found nothing")
		}
		h.deliver(1, envs)
		steps++
	}
	if steps != 2 {
		t.Fatalf("%d steps for 2 objects, want 2", steps)
	}
	if _, _, progressed, _ := s.Step(); progressed {
		t.Fatal("Step progressed on a drained site")
	}
}

// ringHarness builds n sites holding a 6-object cross-site pointer ring where
// every object also carries the "hot" keyword, and returns the object ids.
func ringHarness(t *testing.T, h *harness) []object.ID {
	t.Helper()
	objs := make([]*object.Object, 6)
	for i := range objs {
		objs[i] = h.store(object.SiteID(i%3 + 1)).NewObject()
	}
	ids := make([]object.ID, 6)
	for i, o := range objs {
		ids[i] = o.ID
		o.Add("keyword", object.Keyword("hot"), object.Value{})
		o.Add("Pointer", object.String("Ref"), object.Pointer(objs[(i+1)%6].ID))
		if err := h.store(object.SiteID(i%3 + 1)).Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestPlanCacheCompilesOncePerSiteAcrossFanout is the re-parse guard from the
// acceptance criteria: the same body fanned out over three sites by three
// successive queries is compiled exactly once per site — every later context,
// whether created by a local Submit or a remote Deref carrying the body hash,
// reuses the cached plan.
func TestPlanCacheCompilesOncePerSiteAcrossFanout(t *testing.T) {
	h := newHarness(t, 3, nil)
	ids := ringHarness(t, h)
	body := `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`

	for seq := uint64(1); seq <= 3; seq++ {
		cm := h.exec(1, seq, body, ids[:1])
		if cm.Err != "" {
			t.Fatalf("query %d: %s", seq, cm.Err)
		}
		if len(cm.IDs) != 6 {
			t.Fatalf("query %d: %d results, want 6", seq, len(cm.IDs))
		}
	}

	for id, s := range h.sites {
		st := s.Stats()
		if st.PlanCompiles != 1 {
			t.Errorf("site %v compiled %d times across 3 identical queries, want 1", id, st.PlanCompiles)
		}
		if st.PlanCacheHits < 2 {
			t.Errorf("site %v: %d cache hits, want >= 2", id, st.PlanCacheHits)
		}
	}
}

// TestPlanCacheDistinguishesBodies: two different bodies may never share a
// plan, whatever the cache does.
func TestPlanCacheDistinguishesBodies(t *testing.T) {
	h := newHarness(t, 3, nil)
	ids := ringHarness(t, h)

	cmHot := h.exec(1, 1, `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`, ids[:1])
	cmCold := h.exec(1, 2, `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "cold", ?) -> T`, ids[:1])
	if len(cmHot.IDs) != 6 || len(cmCold.IDs) != 0 {
		t.Fatalf("hot=%d cold=%d results, want 6/0", len(cmHot.IDs), len(cmCold.IDs))
	}
	st := h.sites[1].Stats()
	if st.PlanCompiles != 2 {
		t.Errorf("origin compiled %d plans for 2 distinct bodies, want 2", st.PlanCompiles)
	}
}

// TestPlanCacheEvictionUnderLiveQuery floods a participant with more distinct
// bodies than PlanCacheEntries while a query it is executing still has work
// queued there. The flood evicts that query's plan; the context keeps its
// own *Plan, so the query completes with the answer it gives unflooded, and
// the next query with its body compiles once more at the participant.
func TestPlanCacheEvictionUnderLiveQuery(t *testing.T) {
	body := `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`
	ref := newHarness(t, 3, nil)
	want := ref.exec(1, 1, body, ringHarness(t, ref)[:1])
	if len(want.IDs) != 6 {
		t.Fatalf("setup: unflooded query found %d results, want 6", len(want.IDs))
	}

	h := newHarness(t, 3, nil)
	ids := ringHarness(t, h)
	h.submit(wire.QueryID{Origin: 1, Seq: 1}, body, ids[:1])
	for h.sites[1].HasWork() {
		_, envs, _, err := h.sites[1].Step()
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(1, envs)
	}
	p := h.sites[2]
	if !p.HasWork() {
		t.Fatal("setup: the query has no work queued at participant 2")
	}

	// Queries with no initial set compile at site 2 and finish there without
	// a step, so the flood leaves the queued work untouched.
	for i := 0; i <= PlanCacheEntries; i++ {
		h.submit(wire.QueryID{Origin: 2, Seq: uint64(i + 1)},
			fmt.Sprintf(`S (keyword, "flood%d", ?) -> T`, i), nil)
	}
	if len(h.completes) != PlanCacheEntries+1 {
		t.Fatalf("%d flood queries completed, want %d", len(h.completes), PlanCacheEntries+1)
	}
	h.completes = h.completes[:0]
	if n := p.plans.Len(); n > PlanCacheEntries {
		t.Fatalf("participant caches %d plans, want at most %d", n, PlanCacheEntries)
	}
	if p.cfg.Metrics.Counter("hf_plan_cache_evictions").Load() == 0 {
		t.Fatal("the flood evicted nothing")
	}
	if !p.HasWork() {
		t.Fatal("the flood drained the query's queued work")
	}

	h.pump()
	if len(h.completes) != 1 {
		t.Fatalf("%d completions, want 1", len(h.completes))
	}
	if got := h.completes[0]; got.Err != "" || !slices.Equal(got.IDs, want.IDs) {
		t.Fatalf("flooded query answered %v (err %q), want %v", got.IDs, got.Err, want.IDs)
	}
	h.completes = h.completes[:0]

	compiles := p.Stats().PlanCompiles
	if cm := h.exec(1, 2, body, ids[:1]); !slices.Equal(cm.IDs, want.IDs) {
		t.Fatalf("repeat answered %v, want %v", cm.IDs, want.IDs)
	}
	if got := p.Stats().PlanCompiles - compiles; got != 1 {
		t.Errorf("participant compiled the evicted body %d times on repeat, want 1", got)
	}
}
