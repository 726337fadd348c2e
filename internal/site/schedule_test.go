package site

import (
	"slices"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// submitLocal admits a query over n fresh local objects matching the body's
// filter, giving the context n working-set items, and returns its context.
func submitLocal(t *testing.T, h *harness, siteID object.SiteID, seq uint64, clientID uint64, n int) *qctx {
	t.Helper()
	st := h.store(siteID)
	ids := make([]object.ID, n)
	for i := range ids {
		o := st.NewObject().Add("k", object.String("a"), object.Value{})
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID
	}
	qid := wire.QueryID{Origin: siteID, Seq: seq}
	sub := &wire.Submit{QID: qid, Client: client, Body: `S (k, "a", ?) -> T`,
		Initial: ids, ClientID: clientID}
	if _, err := h.sites[siteID].HandleMessage(client, sub); err != nil {
		t.Fatal(err)
	}
	ctx := h.sites[siteID].contexts[qid]
	if ctx == nil {
		t.Fatalf("no context for %v", qid)
	}
	return ctx
}

// TestFairStepSharing checks the step scheduler's round robin over clients:
// a client with many queued queries cannot crowd out a client with one.
// Client 1 holds three contexts with work, client 2 one; round robin over
// contexts would give client 2 a quarter of the steps, over clients it gets
// half.
func TestFairStepSharing(t *testing.T) {
	h := newHarness(t, 1, nil)
	s := h.sites[1]
	submitLocal(t, h, 1, 1, 1, 12)
	submitLocal(t, h, 1, 2, 1, 12)
	submitLocal(t, h, 1, 3, 1, 12)
	submitLocal(t, h, 1, 4, 2, 12)

	// Mimic the worker loop for 8 pops without draining any context.
	steps := map[uint64]int{}
	for i := 0; i < 8; i++ {
		ctx := s.nextWithWork()
		if ctx == nil {
			t.Fatalf("no work at pop %d", i)
		}
		steps[ctx.lane.client]++
		ctx.eng.Step()
		s.markReady(ctx)
	}
	if steps[2] != 4 {
		t.Errorf("light client got %d of 8 steps, want 4 (greedy got %d)", steps[2], steps[1])
	}
	if s.Stats().FairDeferred == 0 {
		t.Error("expected FairDeferred > 0 with two competing clients")
	}
}

// TestFairAdmissionSharing checks the admission queue's round robin: with
// the one inflight slot occupied, a greedy client queues four Submits before
// a light client queues one; the light client must still be admitted by the
// second slot grant, not behind the whole burst.
func TestFairAdmissionSharing(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) {
		c.MaxInflight = 1
		c.AdmissionQueue = 8
	})
	s := h.sites[1]
	// Occupy the only slot.
	blocker := submitLocal(t, h, 1, 1, 1, 1)

	st := h.store(1)
	o := st.NewObject().Add("k", object.String("a"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	queue := func(seq, clientID uint64) {
		sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: seq}, Client: client,
			Body: `S (k, "a", ?) -> T`, Initial: []object.ID{o.ID}, ClientID: clientID}
		out, err := s.HandleMessage(client, sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("queued submit %d produced %v", seq, out[0].Msg.Kind())
		}
	}
	for seq := uint64(2); seq <= 5; seq++ {
		queue(seq, 1) // greedy burst
	}
	queue(6, 2) // light client, last in line
	if blocker == nil {
		t.Fatal("blocker missing")
	}

	// Run everything down; MaxInflight=1 serializes admissions, so the
	// order of Complete messages is the admission order.
	var order []uint64
	for guard := 0; s.HasWork() || s.Contexts() > 0 || s.admitQ.n > 0; guard++ {
		if guard > 10_000 {
			t.Fatal("no quiescence")
		}
		_, envs, _, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			if cm, ok := env.Msg.(*wire.Complete); ok {
				order = append(order, cm.QID.Seq)
			}
		}
	}
	if len(order) != 6 {
		t.Fatalf("completions = %v, want 6", order)
	}
	// order[0] is the blocker; the light client's query (seq 6) must be one
	// of the first two admissions from the queue.
	pos := -1
	for i, seq := range order {
		if seq == 6 {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Errorf("light client admitted at position %d (%v), want within first two grants", pos, order)
	}
}

// TestClientLanesFreedWithLastContext: a client's lane lives only while the
// client has a live context or a queued Submit. Ten thousand distinct
// clients each submit one query, most of them waiting in the admission
// queue, and once every query has finished no lane is left in either
// rotation.
func TestClientLanesFreedWithLastContext(t *testing.T) {
	const n = 10_000
	h := newHarness(t, 1, func(c *Config) {
		c.MaxInflight = 64
		c.AdmissionQueue = n
	})
	s := h.sites[1]
	o := h.store(1).NewObject().Add("k", object.String("a"), object.Value{})
	if err := h.store(1).Put(o); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		out, err := s.HandleMessage(client, &wire.Submit{
			QID: wire.QueryID{Origin: 1, Seq: uint64(i)}, Client: client,
			Body: `S (k, "a", ?) -> T`, Initial: []object.ID{o.ID}, ClientID: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(1, out)
	}
	if got := len(s.admitQ.lanes); got != n-64 {
		t.Fatalf("admission lanes = %d, want one per queued client (%d)", got, n-64)
	}
	h.pump()
	if len(h.completes) != n || s.Contexts() != 0 || s.admitQ.n != 0 {
		t.Fatalf("%d completions, %d contexts, %d queued: want %d, 0, 0",
			len(h.completes), s.Contexts(), s.admitQ.n, n)
	}
	for name, lanes := range map[string]int{
		"ready lanes": len(s.ready.lanes), "ready ring": len(s.ready.ring),
		"admission lanes": len(s.admitQ.lanes), "admission ring": len(s.admitQ.ring),
	} {
		if lanes != 0 {
			t.Errorf("%s = %d after every client finished, want 0", name, lanes)
		}
	}
}

// TestRotationCycleDoesNotAllocate pins the lane's head index: a lane popped
// and pushed back every turn, as the ready rotation does with a context that
// still has work, reuses its backing array. A pop that re-slices the head
// off instead shrinks the array by one slot per turn, and the push after it
// reallocates once the slots run out.
func TestRotationCycleDoesNotAllocate(t *testing.T) {
	live := func(int) bool { return true }
	for _, n := range []int{1, 2} {
		var r rotation[int]
		l := r.hold(1)
		for v := range n {
			r.push(l, v)
		}
		cycle := func() {
			v, _, ok := r.pop(live)
			if !ok {
				t.Fatal("pop found no entry")
			}
			r.push(l, v)
		}
		cycle()
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("%d-entry lane: %.1f allocs per pop/push cycle, want 0", n, a)
		}
		if got := l.queued(); len(got) != n || r.n != n {
			t.Errorf("%d-entry lane holds %v (n=%d) after cycling", n, got, r.n)
		}
	}
}

// TestRotationHeadIndex runs remove, filter, has and push on a lane whose
// head has moved past popped entries.
func TestRotationHeadIndex(t *testing.T) {
	live := func(int) bool { return true }
	var r rotation[int]
	l := r.hold(1)
	for v := range 5 {
		r.push(l, v)
	}
	for want := range 2 {
		if v, _, ok := r.pop(live); !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, ok, want)
		}
	}
	r.remove(l, 3)
	if got := l.queued(); !slices.Equal(got, []int{2, 4}) || r.n != 2 {
		t.Fatalf("after remove: %v (n=%d), want [2 4]", got, r.n)
	}
	if r.has(func(v int) bool { return v < 2 }) {
		t.Error("has found a popped entry")
	}
	r.filter(func(v int) bool { return v != 2 })
	r.push(l, 5)
	if got := l.queued(); !slices.Equal(got, []int{4, 5}) || r.n != 2 {
		t.Fatalf("after filter and push: %v (n=%d), want [4 5]", got, r.n)
	}
	for _, want := range []int{4, 5} {
		if v, _, ok := r.pop(live); !ok || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, ok, want)
		}
	}
	if r.any(live) || l.head != 0 || len(l.items) != 0 {
		t.Errorf("emptied lane: any=%v head=%d items=%v", r.any(live), l.head, l.items)
	}
}
