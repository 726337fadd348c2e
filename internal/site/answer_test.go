package site

import (
	"slices"
	"testing"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// TestOriginatorAnswerOnEveryPath checks the originator's answer on each
// path that builds a Complete. The answer draws on every source the
// originator merges: its own drain (a, b), site 2's Results split one id
// per message by ResultBatch 1 (c, d), and a repeated id (a arrives again in
// two injected Results). Site 3's Deref (e, f) is held back, so the query
// cannot terminate until the path under test ends it. On every path
// Complete.IDs (and, when retained, ctx.retained) must equal IDSet.Sorted
// of the ids, and Count must sum what was reported, repeats included.
func TestOriginatorAnswerOnEveryPath(t *testing.T) {
	const localAndSite2, withSite3 = 6, 8 // 2 local + 2 Results + 2 repeats (+ 2 from site 3)
	cases := []struct {
		name   string
		retain bool
		end    func(h *harness, qid wire.QueryID, held []wire.Envelope)
		full   bool // site 3's ids are in the answer
		count  int
		reason string
	}{
		{name: "checkDone", end: func(h *harness, _ wire.QueryID, held []wire.Envelope) {
			h.deliver(1, held)
			h.pump()
		}, full: true, count: withSite3},
		{name: "PeerDown", end: func(h *harness, _ wire.QueryID, _ []wire.Envelope) {
			h.deliver(1, h.sites[1].PeerDown(3))
		}, count: localAndSite2, reason: "peer down"},
		{name: "Abort", end: func(h *harness, qid wire.QueryID, _ []wire.Envelope) {
			h.deliver(1, h.sites[1].Abort(qid))
		}, count: localAndSite2, reason: "cancelled by client"},
		{name: "deadline", end: func(h *harness, qid wire.QueryID, _ []wire.Envelope) {
			h.sites[1].contexts[qid].deadline = time.Now().Add(-time.Second)
			out, err := h.sites[1].ExpireDeadlines()
			if err != nil {
				t.Fatal(err)
			}
			h.deliver(1, out)
		}, count: localAndSite2, reason: "deadline expired"},
		{name: "Finish{Retain}", retain: true, end: func(h *harness, _ wire.QueryID, held []wire.Envelope) {
			h.deliver(1, held)
			h.pump()
		}, count: withSite3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3, func(c *Config) {
				// Each Deref must leave in the Submit's own output, so site 3's
				// can be held back: the paper's protocol sends them at once.
				c.DerefBatch = Unbatched
				c.ResultBatch = 1
				if tc.retain && c.ID == 3 {
					c.DistributedSetThreshold = 1
				}
			})
			var ids []object.ID
			for _, at := range []object.SiteID{1, 1, 2, 2, 3, 3} {
				o := h.store(at).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
				if err := h.store(at).Put(o); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, o.ID)
			}
			qid := wire.QueryID{Origin: 1, Seq: 1}
			out, err := h.sites[1].HandleMessage(client, &wire.Submit{
				QID: qid, Client: client, Body: `S (keyword, "hot", ?) -> T`, Initial: ids,
			})
			if err != nil {
				t.Fatal(err)
			}
			var held []wire.Envelope
			for _, env := range out {
				if env.To == 3 {
					held = append(held, env)
				} else {
					h.deliver(1, []wire.Envelope{env})
				}
			}
			h.pump()
			for range 2 {
				out, err := h.sites[1].HandleMessage(2, &wire.Result{QID: qid, IDs: ids[:1], Count: 1})
				if err != nil {
					t.Fatal(err)
				}
				h.deliver(1, out)
			}
			if len(h.completes) != 0 {
				t.Fatalf("completed before the path under test: %+v", h.completes[0])
			}

			tc.end(h, qid, held)
			if len(h.completes) != 1 {
				t.Fatalf("%d completions, want 1", len(h.completes))
			}
			cm := h.completes[0]
			n := 4
			if tc.full && !tc.retain {
				n = 6
			}
			want := object.NewIDSet(ids[:n]...).Sorted()
			if !slices.Equal(cm.IDs, want) {
				t.Errorf("Complete.IDs = %v, want %v", cm.IDs, want)
			}
			if cm.Count != tc.count {
				t.Errorf("Count = %d, want %d", cm.Count, tc.count)
			}
			if cm.Reason != tc.reason || cm.Partial != (tc.reason != "") {
				t.Errorf("reason %q partial %v, want %q", cm.Reason, cm.Partial, tc.reason)
			}
			if !tc.retain {
				return
			}
			if !cm.Distributed {
				t.Error("answer not marked distributed")
			}
			if got := h.sites[1].contexts[qid].retained; !slices.Equal(got, want) {
				t.Errorf("originator retained %v, want %v", got, want)
			}
			if got, want := h.sites[3].contexts[qid].retained, object.NewIDSet(ids[4:]...).Sorted(); !slices.Equal(got, want) {
				t.Errorf("site 3 retained %v, want %v", got, want)
			}
		})
	}
}

// TestStepCountersMatchEngineStats runs queries that hit a missing object
// and revisit an (id, start) pair. A site feeds site_steps from the items
// each engine run took and the engine counters Stats reads from what the run
// added to the engine's Stats, so on every site the steps must equal the
// items processed, skipped and missing, and every engine counter the fixture
// exercises must have moved. perf/ derives engine.objects_per_query,
// engine.mark_skip_share and site.local_derefs_per_query from these
// counters.
func TestStepCountersMatchEngineStats(t *testing.T) {
	regs := map[object.SiteID]*metrics.Registry{1: metrics.NewRegistry(), 2: metrics.NewRegistry()}
	h := newHarness(t, 2, func(c *Config) { c.Metrics = regs[c.ID] })
	obj := func(at object.SiteID) *object.Object {
		return h.store(at).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	}
	ref := func(o *object.Object, to object.ID) { o.Add("Pointer", object.String("Ref"), object.Pointer(to)) }
	root, a, b, c := obj(1), obj(1), obj(1), obj(1)
	x, y, z := obj(2), obj(2), obj(2)
	ref(root, a.ID)
	ref(root, b.ID)
	ref(root, x.ID)
	ref(root, object.ID{Birth: 1, Seq: 999}) // missing at site 1
	ref(a, c.ID)
	ref(b, c.ID) // c revisited at the same start
	ref(x, c.ID) // and again, from site 2
	ref(x, y.ID)
	ref(x, z.ID)
	ref(y, z.ID)                          // z revisited at site 2
	ref(x, object.ID{Birth: 2, Seq: 999}) // missing at site 2
	for _, o := range []*object.Object{root, a, b, c, x, y, z} {
		if err := h.store(o.ID.Birth).Put(o); err != nil {
			t.Fatal(err)
		}
	}

	for seq := uint64(1); seq <= 2; seq++ {
		cm := h.exec(1, seq, `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "hot", ?) -> T`, []object.ID{root.ID})
		if len(cm.IDs) != 5 { // the leaves c and z have no Ref tuple to pass the body
			t.Fatalf("query %d: results %v, want 5", seq, cm.IDs)
		}
	}
	for id, reg := range regs {
		e := h.sites[id].Stats().Engine
		if steps, items := reg.Counter("site_steps").Load(), e.Processed+e.Skipped+e.Missing; steps != uint64(items) {
			t.Errorf("site %v: site_steps %d, engine items %d (%+v)", id, steps, items, e)
		}
		// Fetched stays 0: the query retrieves no field values.
		for name, n := range map[string]int{
			"Processed": e.Processed, "Results": e.Results, "LocalDerefs": e.LocalDerefs,
			"RemoteDerefs": e.RemoteDerefs, "Skipped": e.Skipped, "Missing": e.Missing,
			"TuplesScanned": e.TuplesScanned,
		} {
			if n == 0 {
				t.Errorf("site %v: Engine.%s is 0; the fixture must exercise it", id, name)
			}
		}
	}
}

// TestParticipantDrainDedupsRevisits runs a query in which site 2's single
// drain passes the same object at two start positions: p is reached at
// start 5 through a's Alt pointer and, after that visit marked only filter
// 5, again at start 2 through q's Ref closure. The drain's results must ship
// once each, sorted, and both Result.Count and Complete.Count must count
// distinct ids (2), not passes (3).
func TestParticipantDrainDedupsRevisits(t *testing.T) {
	h := newHarness(t, 2, nil)
	st := h.store(2)
	po, qo, ao := st.NewObject(), st.NewObject(), st.NewObject()
	hot := func(o *object.Object) *object.Object { return o.Add("keyword", object.Keyword("hot"), object.Value{}) }
	ptr := func(o *object.Object, key string, to object.ID) {
		o.Add("Pointer", object.String(key), object.Pointer(to))
	}
	ptr(hot(ao), "Ref", qo.ID)
	ptr(ao, "Alt", po.ID)
	ptr(hot(qo), "Ref", po.ID)
	ptr(hot(po), "Ref", qo.ID)
	ptr(po, "Alt", ao.ID)
	for _, o := range []*object.Object{po, qo, ao} {
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	cm := h.exec(1, 1, `S [ (Pointer, "Ref", ?X) ^^X ]** (Pointer, "Alt", ?Y) ^^Y (keyword, "hot", ?) -> T`,
		[]object.ID{ao.ID})
	if got := h.sites[2].Stats().Engine.Results; got != 3 {
		t.Fatalf("site 2 added %d results, want 3 (a once, p twice): the fixture must revisit", got)
	}
	want := []object.ID{po.ID, ao.ID}
	if len(h.results) != 1 {
		t.Fatalf("site 2 sent %d Results, want one drain's", len(h.results))
	}
	if r := h.results[0]; !slices.Equal(r.IDs, want) || r.Count != len(want) {
		t.Errorf("Result IDs %v Count %d, want %v Count %d", r.IDs, r.Count, want, len(want))
	}
	if !slices.Equal(cm.IDs, want) || cm.Count != len(want) {
		t.Errorf("Complete IDs %v Count %d, want %v Count %d", cm.IDs, cm.Count, want, len(want))
	}
}
