package site

import (
	"testing"

	"hyperfile/internal/object"
)

// buildRing wires n objects into a cross-site pointer ring over the harness'
// sites, every object carrying the "hot" keyword, and returns the ids.
func buildRing(t *testing.T, h *harness, sites, n int) []object.ID {
	t.Helper()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = h.store(object.SiteID(i%sites + 1)).NewObject()
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
		o.Add("keyword", object.Keyword("hot"), object.Value{})
		o.Add("Pointer", object.String("Ref"), object.Pointer(objs[(i+1)%n].ID))
		if err := h.store(object.SiteID(i%sites + 1)).Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

const ringClosure = `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`

// TestBatchedSentCacheSuppressesDuplicates: two local objects pointing at the
// same remote object generate one Deref, not two — the sent-cache knows the
// destination's mark table would drop the second anyway.
func TestBatchedSentCacheSuppressesDuplicates(t *testing.T) {
	h := newHarness(t, 2, func(cfg *Config) { cfg.DerefBatch = 8 })
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	var initial []object.ID
	for i := 0; i < 3; i++ {
		o := h.store(1).NewObject().
			Add("keyword", object.Keyword("hot"), object.Value{}).
			Add("Pointer", object.String("Ref"), object.Pointer(remote.ID))
		if err := h.store(1).Put(o); err != nil {
			t.Fatal(err)
		}
		initial = append(initial, o.ID)
	}
	cm := h.exec(1, 1, `S (Pointer, "Ref", ?X) ^^X (keyword, "hot", ?) -> T`, initial)
	if len(cm.IDs) != 4 {
		t.Fatalf("results = %d, want 4", len(cm.IDs))
	}
	st := h.sites[1].Stats()
	if st.DerefEntriesSent != 1 {
		t.Errorf("deref entries sent = %d, want 1 (duplicates suppressed)", st.DerefEntriesSent)
	}
	if st.DerefsSuppressed != 2 {
		t.Errorf("suppressed = %d, want 2", st.DerefsSuppressed)
	}
}

// TestBatchingStateReleasedOnFinish: once a batched query finishes, nothing
// of it survives at any site — contexts, sent-caches, outgoing queues, and
// the query's slice of the global mark table are all gone, and a tombstone
// guards against resurrection.
func TestBatchingStateReleasedOnFinish(t *testing.T) {
	marks := NewGlobalMarks()
	h := newHarness(t, 3, func(cfg *Config) {
		cfg.DerefBatch = 4
		cfg.GlobalMarks = marks
	})
	ids := buildRing(t, h, 3, 9)
	cm := h.exec(1, 1, ringClosure, ids[:1])
	if len(cm.IDs) != 9 {
		t.Fatalf("results = %d, want 9", len(cm.IDs))
	}
	for id, s := range h.sites {
		if s.Contexts() != 0 {
			t.Errorf("site %v retains %d contexts after finish", id, s.Contexts())
		}
		if !s.tombstoned(cm.QID) {
			t.Errorf("site %v has no tombstone for the finished query", id)
		}
	}
	if n := marks.Len(); n != 0 {
		t.Errorf("global mark table still holds %d marks after finish", n)
	}
}

// TestBatchingStateReleasedOnRetain: a query retained for distributed-set
// reuse keeps only its retained id list; the sent-cache, the queues, the
// engine's mark table, and the global marks are released — a retained
// context never dereferences again, so they are pure leak surface.
func TestBatchingStateReleasedOnRetain(t *testing.T) {
	marks := NewGlobalMarks()
	h := newHarness(t, 3, func(cfg *Config) {
		cfg.DerefBatch = 4
		cfg.GlobalMarks = marks
		cfg.DistributedSetThreshold = 1
	})
	// A star: the root points at four objects on each other site, so each
	// participant receives a whole batch, drains several results at once,
	// and crosses the distributed-set threshold.
	root := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	for _, leafSite := range []object.SiteID{2, 3} {
		for i := 0; i < 4; i++ {
			leaf := h.store(leafSite).NewObject().
				Add("keyword", object.Keyword("hot"), object.Value{})
			leaf.Add("Pointer", object.String("Ref"), object.Pointer(leaf.ID))
			if err := h.store(leafSite).Put(leaf); err != nil {
				t.Fatal(err)
			}
			root.Add("Pointer", object.String("Ref"), object.Pointer(leaf.ID))
		}
	}
	if err := h.store(1).Put(root); err != nil {
		t.Fatal(err)
	}
	cm := h.exec(1, 1, ringClosure, []object.ID{root.ID})
	if !cm.Distributed || cm.Count != 9 {
		t.Fatalf("expected a distributed answer of 9, got count=%d distributed=%v", cm.Count, cm.Distributed)
	}
	for id, s := range h.sites {
		if s.Contexts() != 1 {
			t.Fatalf("site %v holds %d contexts, want 1 retained", id, s.Contexts())
		}
		ctx := s.contexts[cm.QID]
		if ctx == nil || !ctx.finished {
			t.Fatalf("site %v: retained context missing or unfinished", id)
		}
		if ctx.sent != nil || ctx.qorder != nil {
			t.Errorf("site %v: batching state survived retention", id)
		}
		if n := ctx.eng.MarkCount(); n != 0 {
			t.Errorf("site %v: engine mark table still holds %d marks", id, n)
		}
		if len(ctx.retained) == 0 {
			t.Errorf("site %v: retained id list is empty", id)
		}
	}
	if n := marks.Len(); n != 0 {
		t.Errorf("global mark table still holds %d marks after retention", n)
	}
}

// TestTombstonesBounded: the tombstone set must not grow without bound as
// queries come and go.
func TestTombstonesBounded(t *testing.T) {
	h := newHarness(t, 1, func(cfg *Config) { cfg.DerefBatch = 4 })
	o := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(o); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxTombstones+100; i++ {
		cm := h.exec(1, uint64(i), `S (keyword, "hot", ?) -> T`, []object.ID{o.ID})
		if len(cm.IDs) != 1 {
			t.Fatalf("query %d: results = %d", i, len(cm.IDs))
		}
	}
	s := h.sites[1]
	if len(s.tombs) > maxTombstones || len(s.tombOrder) > maxTombstones {
		t.Errorf("tombstones grew to %d/%d, cap %d", len(s.tombs), len(s.tombOrder), maxTombstones)
	}
	if s.Contexts() != 0 {
		t.Errorf("%d contexts leaked", s.Contexts())
	}
}
