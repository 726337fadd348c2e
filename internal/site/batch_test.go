package site

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

// mapSent is the map-form sent-cache — the shape the packed set took over
// from — kept as its differential oracle.
type mapSent map[sentKey]struct{}

func (m mapSent) sentBefore(ref engine.RemoteRef) bool {
	k := sentKey{id: ref.ID, start: ref.Start}
	if _, ok := m[k]; ok {
		return true
	}
	m[k] = struct{}{}
	return false
}

// TestSentCacheDifferential drives the packed sent-cache and the map oracle
// with identical randomized dereference streams and asserts identical
// suppression decisions at every step. The id generator is collision-heavy —
// few birth sites, Seq clustered on powers of two, small starts — so the
// packed set's probe chains actually wrap. A second round after releasing
// the packed set back to its pool proves a recycled set behaves exactly like
// a fresh map.
func TestSentCacheDifferential(t *testing.T) {
	for _, seed := range []int64{3, 19, 1991} {
		rng := rand.New(rand.NewSource(seed))
		s := &Site{}
		compiled := query.MustCompile(`S (keyword, "k", ?) -> T`)
		for round := 0; round < 2; round++ {
			oracle := mapSent{}
			ctx := &qctx{eng: engine.New(compiled, store.New(1))}
			for op := 0; op < 20000; op++ {
				ref := engine.RemoteRef{
					ID: object.ID{
						Birth: object.SiteID(rng.Intn(3) + 1),
						Seq:   uint64(rng.Intn(8)) * uint64(1<<uint(rng.Intn(12))),
					},
					Start: rng.Intn(4),
				}
				got := ctx.sentBefore(ref)
				want := oracle.sentBefore(ref)
				if got != want {
					t.Fatalf("seed %d round %d op %d: packed sentBefore(%v/%d) = %v, map says %v",
						seed, round, op, ref.ID, ref.Start, got, want)
				}
			}
			// Release through the production path, then rerun the stream
			// against fresh contexts: the recycled set must carry nothing
			// over.
			s.releaseQueryResources(ctx)
			if ctx.sent != nil {
				t.Fatal("release left the sent-cache attached")
			}
		}
	}
}

// fanAndChain stores at site at a "hot" root pointing at fan "hot" objects on
// site to and at the head of a local chain of chain "hot" objects, and
// returns the root. Every object also points at itself, so the closure
// selects each one it reaches. Under ringClosure the root's step queues fan
// references for site to, and the chain then drains locally for at least
// chain steps.
func fanAndChain(t *testing.T, h *harness, at, to object.SiteID, fan, chain int) object.ID {
	t.Helper()
	hot := func(s object.SiteID) *object.Object {
		o := h.store(s).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
		return o.Add("Pointer", object.String("Ref"), object.Pointer(o.ID))
	}
	put := func(o *object.Object) {
		if err := h.store(o.ID.Birth).Put(o); err != nil {
			t.Fatal(err)
		}
	}
	root := hot(at)
	for i := 0; i < fan; i++ {
		leaf := hot(to)
		put(leaf)
		root.Add("Pointer", object.String("Ref"), object.Pointer(leaf.ID))
	}
	prev := root
	for i := 0; i < chain; i++ {
		link := hot(at)
		prev.Add("Pointer", object.String("Ref"), object.Pointer(link.ID))
		put(prev)
		prev = link
	}
	put(prev)
	return root.ID
}

// TestDerefFlushTriggers: a root fans out to five objects on another site and
// then leads into a local chain three holds long. With a batch size of 4 the
// first four references fill their queue and ship in the root's own step
// (cap); the fifth ships within FlushEvery steps while the chain is still
// draining (hold) instead of waiting for the drain, each Deref with its own
// credit share; and every full flush leaves the context with no queue.
func TestDerefFlushTriggers(t *testing.T) {
	aud := termination.NewAudit()
	h := newHarness(t, 2, func(c *Config) { c.DerefBatch = 4; c.TermAudit = aud })
	const fan, chain = 5, 3 * FlushEvery
	qid := wire.QueryID{Origin: 1, Seq: 1}
	h.submit(qid, ringClosure, []object.ID{fanAndChain(t, h, 1, 2, fan, chain)})
	s := h.sites[1]
	ctx := s.contexts[qid]
	type shipped struct{ step, ids int }
	var derefs []shipped
	for step := 1; len(derefs) < 2 && step <= FlushEvery; step++ {
		_, envs, _, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			if d, ok := env.Msg.(*wire.Deref); ok {
				if len(d.Token) == 0 {
					t.Errorf("step %d: Deref carries no credit", step)
				}
				derefs = append(derefs, shipped{step, len(d.ObjIDs)})
			}
		}
		h.deliver(1, envs)
	}
	if want := []shipped{{1, 4}, {FlushEvery, 1}}; !slices.Equal(derefs, want) {
		t.Fatalf("Derefs shipped (step, ids) = %v, want %v", derefs, want)
	}
	if !s.HasWork() {
		t.Error("the held reference shipped only at the drain")
	}
	if len(ctx.qorder) != 0 {
		t.Errorf("%d queues survive the hold's full flush", len(ctx.qorder))
	}
	h.pump()
	if len(h.completes) != 1 || len(h.completes[0].IDs) != 1+fan+chain {
		t.Fatalf("%d completions, want one with %d ids", len(h.completes), 1+fan+chain)
	}
	if err := aud.Err(); err != nil {
		t.Errorf("credit not conserved: %v", err)
	}
}

// TestDerefQueuesDroppedOnTeardown: a context torn down while it still holds
// queued references — cancelled at its originator, expired at a participant —
// keeps no queue. Its credit was never split off for them.
func TestDerefQueuesDroppedOnTeardown(t *testing.T) {
	aud := termination.NewAudit()
	h := newHarness(t, 3, func(c *Config) { c.DerefBatch = 8; c.TermAudit = aud })
	// queued steps site once and returns the context, which must now hold a
	// queued reference and still have work.
	queued := func(at object.SiteID, qid wire.QueryID) *qctx {
		t.Helper()
		s := h.sites[at]
		_, envs, _, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(at, envs)
		ctx := s.contexts[qid]
		if ctx == nil || len(ctx.qorder) == 0 || !ctx.eng.HasWork() {
			t.Fatalf("site %v: no context holding queued references", at)
		}
		return ctx
	}

	cancelled := wire.QueryID{Origin: 1, Seq: 1}
	h.submit(cancelled, ringClosure, []object.ID{fanAndChain(t, h, 1, 2, 2, 4)})
	ctx := queued(1, cancelled)
	h.deliver(1, h.sites[1].Abort(cancelled))
	if len(ctx.qorder) != 0 {
		t.Errorf("cancel left %d queues", len(ctx.qorder))
	}

	expired := wire.QueryID{Origin: 1, Seq: 2}
	h.submit(expired, ringClosure, []object.ID{fanAndChain(t, h, 2, 3, 2, 4)})
	ctx = queued(2, expired)
	ctx.deadline = time.Now().Add(-time.Second)
	envs, err := h.sites[2].ExpireDeadlines()
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(2, envs)
	if len(ctx.qorder) != 0 {
		t.Errorf("expiry left %d queues", len(ctx.qorder))
	}
	h.pump()
	if err := aud.Err(); err != nil {
		t.Errorf("credit not conserved: %v", err)
	}
}
