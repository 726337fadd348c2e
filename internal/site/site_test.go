package site

import (
	"errors"
	"testing"
	"time"

	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

const client object.SiteID = 99

// harness drives sites synchronously: it delivers envelopes immediately and
// steps sites until quiescent, collecting client-bound messages.
type harness struct {
	t         *testing.T
	sites     map[object.SiteID]*Site
	dirs      map[object.SiteID]*naming.Directory
	completes []*wire.Complete
}

func newHarness(t *testing.T, n int, tweak func(*Config)) *harness {
	t.Helper()
	h := &harness{t: t, sites: make(map[object.SiteID]*Site)}
	ids := make([]object.SiteID, n)
	for i := range ids {
		ids[i] = object.SiteID(i + 1)
	}
	for _, id := range ids {
		peers := make([]object.SiteID, 0, n-1)
		for _, o := range ids {
			if o != id {
				peers = append(peers, o)
			}
		}
		cfg := Config{ID: id, Store: store.New(id), Peers: peers}
		if tweak != nil {
			tweak(&cfg)
		}
		h.sites[id] = New(cfg)
	}
	return h
}

func (h *harness) store(id object.SiteID) *store.Store { return h.sites[id].cfg.Store }

func (h *harness) deliver(from object.SiteID, envs []wire.Envelope) {
	for _, env := range envs {
		if env.To == client {
			if cm, ok := env.Msg.(*wire.Complete); ok {
				h.completes = append(h.completes, cm)
			}
			continue
		}
		dst, ok := h.sites[env.To]
		if !ok {
			continue // dropped (down site)
		}
		out, err := dst.HandleMessage(from, env.Msg)
		if err != nil {
			h.t.Fatalf("HandleMessage at %v: %v", env.To, err)
		}
		h.deliver(env.To, out)
	}
}

// pump steps all sites until no site has work.
func (h *harness) pump() {
	for {
		progress := false
		for id, s := range h.sites {
			for s.HasWork() {
				progress = true
				_, envs, _, err := s.Step()
				if err != nil {
					h.t.Fatalf("Step at %v: %v", id, err)
				}
				h.deliver(id, envs)
			}
		}
		if !progress {
			return
		}
	}
}

// submit hands a Submit for body to the originator and delivers its output.
func (h *harness) submit(qid wire.QueryID, body string, initial []object.ID) {
	h.t.Helper()
	out, err := h.sites[qid.Origin].HandleMessage(client, &wire.Submit{
		QID: qid, Client: client, Body: body, Initial: initial,
	})
	if err != nil {
		h.t.Fatalf("submit: %v", err)
	}
	h.deliver(qid.Origin, out)
}

func (h *harness) exec(origin object.SiteID, qid uint64, body string, initial []object.ID) *wire.Complete {
	h.t.Helper()
	h.submit(wire.QueryID{Origin: origin, Seq: qid}, body, initial)
	h.pump()
	if len(h.completes) == 0 {
		h.t.Fatalf("no completion")
	}
	cm := h.completes[len(h.completes)-1]
	h.completes = h.completes[:len(h.completes)-1]
	return cm
}

func TestSubmitParseErrorCompletesWithError(t *testing.T) {
	h := newHarness(t, 1, nil)
	cm := h.exec(1, 1, "not a query", nil)
	if cm.Err == "" {
		t.Error("expected an error completion")
	}
	if h.sites[1].Contexts() != 0 {
		t.Error("context leaked for rejected query")
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	o := h.store(1).NewObject().Add("k", object.String("a"), object.Value{})
	if err := h.store(1).Put(o); err != nil {
		t.Fatal(err)
	}
	sub := &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 9}, Client: client,
		Body: `S (k, "a", ?) -> T`, Initial: []object.ID{o.ID},
	}
	if _, err := h.sites[1].HandleMessage(client, sub); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sites[1].HandleMessage(client, sub); !errors.Is(err, ErrProtocol) {
		t.Errorf("duplicate submit: %v", err)
	}
}

func TestContextsDiscardedAfterFinish(t *testing.T) {
	h := newHarness(t, 3, nil)
	// Cross-site ring.
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
	cm := h.exec(1, 1, `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`, ids[:1])
	if len(cm.IDs) != 6 {
		t.Errorf("results = %d, want 6", len(cm.IDs))
	}
	for id, s := range h.sites {
		if s.Contexts() != 0 {
			t.Errorf("site %v retains %d contexts after finish", id, s.Contexts())
		}
	}
}

func TestStatsCountMessages(t *testing.T) {
	h := newHarness(t, 2, nil)
	a := h.store(1).NewObject()
	b := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	a.Add("Pointer", object.String("Ref"), object.Pointer(b.ID))
	a.Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(a); err != nil {
		t.Fatal(err)
	}
	if err := h.store(2).Put(b); err != nil {
		t.Fatal(err)
	}
	cm := h.exec(1, 1, `S (Pointer, "Ref", ?X) ^^X (keyword, "hot", ?) -> T`, []object.ID{a.ID})
	if len(cm.IDs) != 2 {
		t.Fatalf("results = %v", cm.IDs)
	}
	s1 := h.sites[1].Stats()
	s2 := h.sites[2].Stats()
	if s1.DerefsSent != 1 || s2.DerefsReceived != 1 {
		t.Errorf("deref counts: sent=%d received=%d", s1.DerefsSent, s2.DerefsReceived)
	}
	if s2.ResultsSent != 1 || s1.ResultsReceived != 1 {
		t.Errorf("result counts: sent=%d received=%d", s2.ResultsSent, s1.ResultsReceived)
	}
	if s1.Completed != 1 {
		t.Errorf("completed = %d", s1.Completed)
	}
}

func TestResultAtNonOriginatorRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	// A Result for a query with no context here is a straggler from a
	// finished (possibly force-completed) query: silently ignored.
	msg := &wire.Result{QID: wire.QueryID{Origin: 2, Seq: 1}}
	if _, err := h.sites[1].HandleMessage(2, msg); err != nil {
		t.Errorf("stray result for unknown query: %v", err)
	}
	// But a Result for a live context this site does NOT originate is a
	// protocol violation.
	qid := wire.QueryID{Origin: 2, Seq: 2}
	remoteDet := termination.New(termination.Weighted, 2, 2)
	tok, err := remoteDet.OnSend(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.sites[1].HandleMessage(2, &wire.Deref{
		QID: qid, Origin: 2, Body: `S (keyword, "x", ?) -> T`,
		ObjIDs: []object.ID{{Birth: 1, Seq: 99}},
		Token:  tok,
	}); err != nil {
		t.Fatalf("deref: %v", err)
	}
	if _, err := h.sites[1].HandleMessage(2, &wire.Result{QID: qid}); !errors.Is(err, ErrProtocol) {
		t.Errorf("result at live non-originator: %v", err)
	}
}

func TestStaleControlIgnored(t *testing.T) {
	h := newHarness(t, 1, nil)
	msg := &wire.Control{QID: wire.QueryID{Origin: 9, Seq: 1}, Token: []byte{0, 1}} // a credit of 1
	if _, err := h.sites[1].HandleMessage(2, msg); err != nil {
		t.Errorf("stale control should be ignored: %v", err)
	}
}

func TestFinishUnknownQueryIgnored(t *testing.T) {
	h := newHarness(t, 1, nil)
	if _, err := h.sites[1].HandleMessage(2, &wire.Finish{QID: wire.QueryID{Origin: 9, Seq: 9}}); err != nil {
		t.Errorf("unknown finish: %v", err)
	}
}

func TestCompleteAtServerRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	if _, err := h.sites[1].HandleMessage(2, &wire.Complete{}); !errors.Is(err, ErrProtocol) {
		t.Errorf("server got Complete: %v", err)
	}
}

func TestDerefWithBadBodyRejected(t *testing.T) {
	h := newHarness(t, 1, nil)
	msg := &wire.Deref{QID: wire.QueryID{Origin: 2, Seq: 1}, Origin: 2, Body: "%%%"}
	if _, err := h.sites[1].HandleMessage(2, msg); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad body: %v", err)
	}
}

func TestBatchedResults(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.ResultBatch = 2 })
	// 5 matching objects at site 2, initial set points to them via site 1.
	var members []object.ID
	for i := 0; i < 5; i++ {
		o := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
		if err := h.store(2).Put(o); err != nil {
			t.Fatal(err)
		}
		members = append(members, o.ID)
	}
	cm := h.exec(1, 1, `S (keyword, "hot", ?) -> T`, members)
	if len(cm.IDs) != 5 || cm.Count != 5 {
		t.Fatalf("results = %v count %d", cm.IDs, cm.Count)
	}
	if got := h.sites[2].Stats().ResultsSent; got != 3 {
		t.Errorf("result messages = %d, want 3 batches of <=2", got)
	}
}

func TestAbortDeliversPartial(t *testing.T) {
	h := newHarness(t, 2, nil)
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	// Unresolvable remote object: site 2 exists but drops (simulate by
	// pointing at a site that is not in the harness).
	ghost := object.ID{Birth: 7, Seq: 1}
	sub := &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 5}, Client: client,
		Body:    `S (keyword, "hot", ?) -> T`,
		Initial: []object.ID{local.ID, ghost},
	}
	out, err := h.sites[1].HandleMessage(client, sub)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(1, out) // deref to site 7 dropped
	h.pump()
	if len(h.completes) != 0 {
		t.Fatalf("query completed despite lost credit")
	}
	envs := h.sites[1].Abort(wire.QueryID{Origin: 1, Seq: 5})
	h.deliver(1, envs)
	if len(h.completes) != 1 {
		t.Fatalf("no completion after abort")
	}
	cm := h.completes[0]
	if !cm.Partial || len(cm.IDs) != 1 {
		t.Errorf("partial = %v ids = %v", cm.Partial, cm.IDs)
	}
	if cm.Reason != "cancelled by client" {
		t.Errorf("reason = %q, want cancelled by client", cm.Reason)
	}
	// The credit sent toward ghost site 7 can never return, so the context
	// stays behind draining; the sweep abandons it once the grace passes.
	ctx := h.sites[1].contexts[wire.QueryID{Origin: 1, Seq: 5}]
	if ctx == nil || !ctx.draining {
		t.Fatalf("aborted context with lost credit should be draining")
	}
	ctx.drainUntil = time.Now().Add(-time.Second)
	if _, err := h.sites[1].ExpireDeadlines(); err != nil {
		t.Fatal(err)
	}
	if h.sites[1].Contexts() != 0 {
		t.Errorf("context leaked after abort drain grace")
	}
}

func TestAbortUnknownQueryNoop(t *testing.T) {
	h := newHarness(t, 1, nil)
	if envs := h.sites[1].Abort(wire.QueryID{Origin: 1, Seq: 42}); envs != nil {
		t.Errorf("abort of unknown query emitted %v", envs)
	}
}

// TestPeerDownSkipsDerefAndAnnotates: with a peer declared dead before the
// query starts, dereferences to it are suppressed (no credit parked at a
// corpse) and the query terminates normally with a partial answer naming
// the unreachable site.
func TestPeerDownSkipsDerefAndAnnotates(t *testing.T) {
	h := newHarness(t, 2, nil)
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	h.sites[1].PeerDown(2)
	cm := h.exec(1, 1, `S (keyword, "hot", ?) -> T`, []object.ID{local.ID, remote.ID})
	if !cm.Partial {
		t.Error("answer not marked partial")
	}
	if len(cm.Unreachable) != 1 || cm.Unreachable[0] != 2 {
		t.Errorf("unreachable = %v, want [2]", cm.Unreachable)
	}
	if len(cm.IDs) != 1 || cm.IDs[0] != local.ID {
		t.Errorf("ids = %v, want just the local object", cm.IDs)
	}
	// After the peer recovers, queries reach it again.
	h.sites[1].PeerUp(2)
	cm = h.exec(1, 2, `S (keyword, "hot", ?) -> T`, []object.ID{local.ID, remote.ID})
	if cm.Partial || len(cm.Unreachable) != 0 || len(cm.IDs) != 2 {
		t.Errorf("after PeerUp: partial=%v unreachable=%v ids=%v", cm.Partial, cm.Unreachable, cm.IDs)
	}
}

// TestPeerDownForceCompletesEngagedQuery: a peer dying while holding
// termination credit would hang the query forever; PeerDown force-completes
// the engaged originator context with a partial answer naming the site.
func TestPeerDownForceCompletesEngagedQuery(t *testing.T) {
	// The Deref must be on the wire, engaging site 2, before the originator
	// steps: the paper's protocol sends it with the Submit's output.
	h := newHarness(t, 2, func(c *Config) { c.DerefBatch = Unbatched })
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	sub := &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 5}, Client: client,
		Body:    `S (keyword, "hot", ?) -> T`,
		Initial: []object.ID{local.ID, remote.ID},
	}
	out, err := h.sites[1].HandleMessage(client, sub)
	if err != nil {
		t.Fatal(err)
	}
	// The deref to site 2 is never delivered — the site just died with the
	// credit. Declaring it down must force-complete the query.
	_ = out
	envs := h.sites[1].PeerDown(2)
	h.deliver(1, envs)
	if len(h.completes) != 1 {
		t.Fatalf("no completion after PeerDown (envs %v)", envs)
	}
	cm := h.completes[0]
	if !cm.Partial || len(cm.Unreachable) != 1 || cm.Unreachable[0] != 2 {
		t.Errorf("partial=%v unreachable=%v", cm.Partial, cm.Unreachable)
	}
	if h.sites[1].Contexts() != 0 {
		t.Error("context leaked after forced completion")
	}
	// A straggler result or deref for the dead query must not resurrect it.
	if _, err := h.sites[1].HandleMessage(2, &wire.Result{QID: sub.QID, Count: 1}); err != nil {
		t.Errorf("straggler result: %v", err)
	}
	remoteDet := termination.New(termination.Weighted, 2, 2)
	tok, _ := remoteDet.OnSend(1)
	if _, err := h.sites[1].HandleMessage(2, &wire.Deref{
		QID: sub.QID, Origin: 1, Body: sub.Body, ObjIDs: []object.ID{remote.ID}, Token: tok,
	}); err != nil {
		t.Errorf("straggler deref: %v", err)
	}
	if h.sites[1].Contexts() != 0 {
		t.Error("straggler resurrected a tombstoned query")
	}
}

// TestPeerDownDropsOrphanedParticipantContexts: when the originator dies,
// its participants' contexts are discarded — nobody is left to collect.
func TestPeerDownDropsOrphanedParticipantContexts(t *testing.T) {
	h := newHarness(t, 2, nil)
	o := h.store(1).NewObject().Add("keyword", object.Keyword("x"), object.Value{})
	if err := h.store(1).Put(o); err != nil {
		t.Fatal(err)
	}
	remoteDet := termination.New(termination.Weighted, 2, 2)
	tok, _ := remoteDet.OnSend(1)
	qid := wire.QueryID{Origin: 2, Seq: 1}
	if _, err := h.sites[1].HandleMessage(2, &wire.Deref{
		QID: qid, Origin: 2, Body: `S (keyword, "x", ?) -> T`, ObjIDs: []object.ID{o.ID}, Token: tok,
	}); err != nil {
		t.Fatal(err)
	}
	if h.sites[1].Contexts() != 1 {
		t.Fatal("participant context not created")
	}
	h.sites[1].PeerDown(2)
	if h.sites[1].Contexts() != 0 {
		t.Error("orphaned participant context survived originator death")
	}
}

func TestDistributedSetRetention(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.DistributedSetThreshold = 1 })
	var members []object.ID
	for i := 0; i < 4; i++ {
		o := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
		if err := h.store(2).Put(o); err != nil {
			t.Fatal(err)
		}
		members = append(members, o.ID)
	}
	cm := h.exec(1, 1, `S (keyword, "hot", ?) -> T`, members)
	if !cm.Distributed || cm.Count != 4 || len(cm.IDs) != 0 {
		t.Fatalf("complete = %+v, want distributed count-only", cm)
	}
	// Both sites retain their contexts for seeding.
	if h.sites[1].Contexts() != 1 || h.sites[2].Contexts() != 1 {
		t.Errorf("contexts: origin=%d participant=%d, want 1/1",
			h.sites[1].Contexts(), h.sites[2].Contexts())
	}
	// Follow-up narrows within the distributed set.
	sub := &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 2}, Client: client,
		Body:                `S (keyword, "hot", ?) -> U`,
		InitialFromResultOf: wire.QueryID{Origin: 1, Seq: 1},
	}
	out, err := h.sites[1].HandleMessage(client, sub)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(1, out)
	h.pump()
	cm2 := h.completes[len(h.completes)-1]
	if cm2.Count != 4 {
		t.Errorf("follow-up count = %d, want 4", cm2.Count)
	}
}

// TestProtocolsEquivalentResults: the paper's one-id-per-Deref protocol and
// the production batched one return the same answer.
func TestProtocolsEquivalentResults(t *testing.T) {
	for _, batch := range []int{Unbatched, 0} {
		h := newHarness(t, 3, func(c *Config) { c.DerefBatch = batch })
		objs := make([]*object.Object, 9)
		for i := range objs {
			objs[i] = h.store(object.SiteID(i%3 + 1)).NewObject()
		}
		ids := make([]object.ID, 9)
		for i, o := range objs {
			ids[i] = o.ID
			o.Add("keyword", object.Keyword("hot"), object.Value{})
			o.Add("Pointer", object.String("Ref"), object.Pointer(objs[(i+1)%9].ID))
			if err := h.store(object.SiteID(i%3 + 1)).Put(o); err != nil {
				t.Fatal(err)
			}
		}
		cm := h.exec(1, 1, `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`, ids[:1])
		if len(cm.IDs) != 9 {
			t.Errorf("DerefBatch %d: results = %d, want 9", batch, len(cm.IDs))
		}
	}
}

func TestGlobalMarksSuppressDuplicates(t *testing.T) {
	marks := NewGlobalMarks()
	h := newHarness(t, 2, func(c *Config) { c.GlobalMarks = marks })
	// Two site-1 objects point at the same site-2 object: the second deref
	// send must be suppressed by the shared table.
	target := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(target); err != nil {
		t.Fatal(err)
	}
	var initial []object.ID
	for i := 0; i < 2; i++ {
		o := h.store(1).NewObject().
			Add("Pointer", object.String("Ref"), object.Pointer(target.ID)).
			Add("keyword", object.Keyword("hot"), object.Value{})
		if err := h.store(1).Put(o); err != nil {
			t.Fatal(err)
		}
		initial = append(initial, o.ID)
	}
	cm := h.exec(1, 1, `S (Pointer, "Ref", ?X) ^^X (keyword, "hot", ?) -> T`, initial)
	if len(cm.IDs) != 3 {
		t.Fatalf("results = %v", cm.IDs)
	}
	if got := h.sites[1].Stats().DerefsSent; got != 1 {
		t.Errorf("derefs sent = %d, want 1 (duplicate suppressed)", got)
	}
}

func TestBirthRouter(t *testing.T) {
	owner, auth := BirthRouter{}.Owner(object.ID{Birth: 4, Seq: 2})
	if owner != 4 || !auth {
		t.Errorf("BirthRouter = %v, %v", owner, auth)
	}
}
