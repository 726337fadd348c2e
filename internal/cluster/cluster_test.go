package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/workload"
)

// loadRingSim builds a cross-site ring of n objects (object i at site
// i%len(sites)+1, pointing to object i+1 mod n) each carrying a keyword
// tuple chosen from keys. It returns the ids in ring order.
func loadRingSim(t *testing.T, c *SimCluster, n int, keys []string) []object.ID {
	t.Helper()
	sites := c.Sites()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = c.Store(sites[i%len(sites)]).NewObject()
	}
	for i, o := range objs {
		o.Add("keyword", object.Keyword(keys[i%len(keys)]), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%n].ID))
		if err := c.Put(o.ID.Birth, o); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

func loadRingLocal(t *testing.T, c *LocalCluster, n int, keys []string) []object.ID {
	t.Helper()
	sites := c.Sites()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = c.Store(sites[i%len(sites)]).NewObject()
	}
	for i, o := range objs {
		o.Add("keyword", object.Keyword(keys[i%len(keys)]), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%n].ID))
		if err := c.Put(o.ID.Birth, o); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

const closureQuery = `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`

func TestSimSingleSiteSelection(t *testing.T) {
	c := NewSim(1, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 10, []string{"hot", "cold"})
	res, rt, err := c.Exec(1, `S (keyword, "hot", ?) -> T`, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 5 || res.Count != 5 {
		t.Errorf("results = %d ids count %d, want 5", len(res.IDs), res.Count)
	}
	// 10 objects * 8ms + 5 results * 20ms = 180ms of processing plus fixed
	// message overhead; response time must be deterministic and in range.
	if rt < 180*time.Millisecond || rt > 400*time.Millisecond {
		t.Errorf("response time = %v", rt)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() time.Duration {
		c := NewSim(3, Options{Cost: sim.Paper()})
		ids := loadRingSim(t, c, 30, []string{"hot", "cold", "warm"})
		_, rt, err := c.Exec(1, closureQuery, ids[:1])
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestSimDistributedClosureCompleteness(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 30, []string{"hot", "cold"})
	res, _, err := c.Exec(1, closureQuery, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 15 {
		t.Errorf("closure over 30-ring returned %d hot objects, want 15", len(res.IDs))
	}
	stats := c.TotalStats()
	// The ring alternates sites, so nearly every hop is a remote deref.
	if stats.DerefsSent < 25 {
		t.Errorf("DerefsSent = %d, expected ~29 for a cross-site ring", stats.DerefsSent)
	}
	if stats.Completed != 1 {
		t.Errorf("Completed = %d", stats.Completed)
	}
}

// TestDistributedMatchesSingleSite is the core correctness property: the
// same object graph partitioned over 1, 3, or 5 sites yields identical
// result sets.
func TestDistributedMatchesSingleSite(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		var want []int
		for _, n := range []int{1, 3, 5} {
			rng := rand.New(rand.NewSource(seed))
			c := NewSim(n, Options{Cost: sim.Free()})
			// Build identical logical graphs: object i lives at site
			// i%n+1, with the same tuples regardless of n. Ids differ
			// across partitionings, so compare by logical index.
			sites := c.Sites()
			const N = 40
			objs := make([]*object.Object, N)
			for i := range objs {
				objs[i] = c.Store(sites[i%len(sites)]).NewObject()
			}
			index := make(map[object.ID]int, N)
			for i, o := range objs {
				index[o.ID] = i
			}
			for _, o := range objs {
				if rng.Intn(3) == 0 {
					o.Add("keyword", object.Keyword("hot"), object.Value{})
				}
				for j := 0; j < 2; j++ {
					o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(N)].ID))
				}
				if err := c.Put(o.ID.Birth, o); err != nil {
					t.Fatal(err)
				}
			}
			res, _, err := c.Exec(sites[0], closureQuery, []object.ID{objs[0].ID})
			if err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			got := make([]int, 0, len(res.IDs))
			for _, id := range res.IDs {
				got = append(got, index[id])
			}
			if n == 1 {
				want = got
			} else if !equalIntSets(want, got) {
				t.Errorf("seed %d n %d: results %v != single-site %v", seed, n, got, want)
			}
		}
	}
}

func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

// TestSimBothProtocols: the paper's one-id-per-Deref protocol and the
// production batched one give the same answer.
func TestSimBothProtocols(t *testing.T) {
	for _, batch := range []int{site.Unbatched, 0} {
		c := NewSim(3, Options{Cost: sim.Paper(), Tuning: site.Tuning{DerefBatch: batch}})
		ids := loadRingSim(t, c, 24, []string{"hot", "cold"})
		res, _, err := c.Exec(2, closureQuery, ids[:1])
		if err != nil {
			t.Fatalf("DerefBatch %d: %v", batch, err)
		}
		if len(res.IDs) != 12 {
			t.Errorf("DerefBatch %d: %d results, want 12", batch, len(res.IDs))
		}
	}
}

func TestSimRemoteInitialSet(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 9, []string{"hot"})
	// Submit at site 1 with initial objects living at sites 2 and 3.
	res, _, err := c.Exec(1, `S (keyword, "hot", ?) -> T`, []object.ID{ids[1], ids[2]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Errorf("results = %v, want the two remote initial objects", res.IDs)
	}
}

func TestSimFetchAcrossSites(t *testing.T) {
	c := NewSim(2, Options{Cost: sim.Paper()})
	a := c.Store(1).NewObject().
		Add("Pointer", object.String("Reference"), object.Pointer(object.ID{})). // placeholder replaced below
		Add("String", object.String("Title"), object.String("root doc"))
	b := c.Store(2).NewObject().
		Add("String", object.String("Title"), object.String("leaf doc"))
	a.Tuples[0].Data = object.Pointer(b.ID)
	if err := c.Put(1, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, b); err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Exec(1,
		`S (Pointer, "Reference", ?X) ^^X (String, "Title", ->title) -> T`,
		[]object.ID{a.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fetches) != 2 {
		t.Fatalf("fetches = %v, want titles from both sites", res.Fetches)
	}
	titles := map[string]bool{}
	for _, f := range res.Fetches {
		if f.Var != "title" {
			t.Errorf("fetch var = %q", f.Var)
		}
		titles[f.Val.Str] = true
	}
	if !titles["root doc"] || !titles["leaf doc"] {
		t.Errorf("titles = %v", titles)
	}
}

func TestSimQueryError(t *testing.T) {
	c := NewSim(1, Options{Cost: sim.Paper()})
	_, _, err := c.Exec(1, `this is not a query`, nil)
	if err == nil {
		t.Fatal("expected error for malformed query")
	}
}

func TestSimDownSitePartialResults(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 12, []string{"hot"})
	c.SetDown(3, true)
	res, _, err := c.Exec(1, closureQuery, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("expected a partial result with site 3 down")
	}
	if len(res.IDs) == 0 || len(res.IDs) >= 12 {
		t.Errorf("partial results = %d ids, want some but not all", len(res.IDs))
	}
	for _, id := range res.IDs {
		if id.Birth == 3 {
			t.Errorf("result %v from the downed site", id)
		}
	}
}

func TestSimDistributedSetRefinement(t *testing.T) {
	// Three site-local rings: each remote site drains its whole portion in
	// one pass, so the per-drain retention threshold triggers.
	c := NewSim(3, Options{Cost: sim.Paper(), Ablation: site.Ablation{DistributedSetThreshold: 2}})
	var heads []object.ID
	for s := 1; s <= 3; s++ {
		st := c.Store(object.SiteID(s))
		objs := make([]*object.Object, 10)
		for i := range objs {
			objs[i] = st.NewObject()
		}
		for i, o := range objs {
			o.Add("keyword", object.Keyword("hot"), object.Value{})
			o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%10].ID))
			if err := c.Put(object.SiteID(s), o); err != nil {
				t.Fatal(err)
			}
		}
		heads = append(heads, objs[0].ID)
	}
	res, qid, _, err := c.ExecQID(1, closureQuery, heads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Distributed {
		t.Fatal("expected a distributed result set")
	}
	if res.Count != 30 {
		t.Errorf("count = %d, want 30", res.Count)
	}
	if len(res.IDs) >= 30 {
		t.Errorf("ids = %d, expected remote portions withheld", len(res.IDs))
	}
	// Follow-up narrows within the distributed set: only objects whose ring
	// position gave them a pointer to an even... instead filter by site of
	// birth using the keyword again (all match) to check the full set is
	// reachable as a starting point.
	res2, _, err := c.ExecSeeded(1, `S (keyword, "hot", ?) -> U`, qid)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != 30 {
		t.Errorf("seeded follow-up count = %d, want 30", res2.Count)
	}
}

func TestSimNamingForwarding(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper(), UseNaming: true})
	ids := loadRingSim(t, c, 9, []string{"hot"})
	// Move an object away from its birth site (site 2) to site 3. The
	// pointer to it is held at site 1, which has no presumption and falls
	// back to the birth site; the birth site's authority forwards to 3.
	if err := c.Move(ids[4], 3); err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Exec(1, closureQuery, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Errorf("results after migration = %d, want 9", len(res.IDs))
	}
	stats := c.TotalStats()
	if stats.Forwards == 0 {
		t.Error("expected at least one forwarded dereference")
	}
}

func TestSimTreeFasterThanChainDistributed(t *testing.T) {
	// Sanity check of the headline experiment shape: with the same objects,
	// a spanning-tree pointer structure must beat the all-remote chain.
	buildChainAndTree := func(c *SimCluster, n int) []object.ID {
		sites := c.Sites()
		objs := make([]*object.Object, n)
		for i := range objs {
			objs[i] = c.Store(sites[i%len(sites)]).NewObject()
		}
		for i, o := range objs {
			o.Add("keyword", object.Keyword("hot"), object.Value{})
			o.Add("Pointer", object.String("Chain"), object.Pointer(objs[(i+1)%n].ID))
		}
		// Tree: object 0 points at one root per other site; roots span
		// their site-local objects.
		for s := 1; s < len(sites); s++ {
			objs[0].Add("Pointer", object.String("Tree"), object.Pointer(objs[s].ID))
		}
		perSite := make(map[int][]int)
		for i := range objs {
			perSite[i%len(sites)] = append(perSite[i%len(sites)], i)
		}
		for s, members := range perSite {
			root := members[0]
			if s == 0 {
				root = 0
			}
			for _, m := range members {
				if m != root {
					objs[root].Add("Pointer", object.String("Tree"), object.Pointer(objs[m].ID))
				}
			}
		}
		ids := make([]object.ID, n)
		for i, o := range objs {
			ids[i] = o.ID
			if err := c.Put(o.ID.Birth, o); err != nil {
				panic(err)
			}
		}
		return ids
	}

	cChain := NewSim(3, Options{Cost: sim.Paper()})
	idsC := buildChainAndTree(cChain, 30)
	_, rtChain, err := cChain.Exec(1, `S [ (Pointer, "Chain", ?X) ^^X ]** (keyword, "hot", ?) -> T`, idsC[:1])
	if err != nil {
		t.Fatal(err)
	}
	cTree := NewSim(3, Options{Cost: sim.Paper()})
	idsT := buildChainAndTree(cTree, 30)
	_, rtTree, err := cTree.Exec(1, `S [ (Pointer, "Tree", ?X) ^^X ]** (keyword, "hot", ?) -> T`, idsT[:1])
	if err != nil {
		t.Fatal(err)
	}
	if rtTree >= rtChain {
		t.Errorf("tree (%v) not faster than chain (%v)", rtTree, rtChain)
	}
}

// TestOracleMarkTablePreservesAnswers: the global-mark-table ablation only
// removes duplicate messages; answers must be identical.
func TestOracleMarkTablePreservesAnswers(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		var want []object.ID
		for _, oracle := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			c := NewSim(3, Options{Cost: sim.Free(), OracleMarkTable: oracle})
			sites := c.Sites()
			const N = 45
			objs := make([]*object.Object, N)
			for i := range objs {
				objs[i] = c.Store(sites[i%3]).NewObject()
			}
			for _, o := range objs {
				if rng.Intn(2) == 0 {
					o.Add("keyword", object.Keyword("hot"), object.Value{})
				}
				for j := 0; j < 2; j++ {
					o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(N)].ID))
				}
				if err := c.Put(o.ID.Birth, o); err != nil {
					t.Fatal(err)
				}
			}
			res, _, err := c.Exec(1, closureQuery, []object.ID{objs[0].ID})
			if err != nil {
				t.Fatalf("seed %d oracle %v: %v", seed, oracle, err)
			}
			if !oracle {
				want = res.IDs
			} else if len(res.IDs) != len(want) {
				t.Errorf("seed %d: oracle results %d != plain %d", seed, len(res.IDs), len(want))
			}
		}
	}
}

// TestSimSeededWithoutRetention: seeding from a query that retained nothing
// still terminates with an empty answer.
func TestSimSeededWithoutRetention(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 9, []string{"hot"})
	_, qid, _, err := c.ExecQID(1, closureQuery, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	// The first query was not distributed, so contexts are gone; the
	// seeded follow-up finds nothing to seed and completes empty.
	res, _, err := c.ExecSeeded(1, `S (keyword, "hot", ?) -> U`, qid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Errorf("count = %d, want 0", res.Count)
	}
}

// TestSimExecBatchInterleaving: concurrent queries share site CPUs
// round-robin; all complete with correct answers and each runs slower than
// it would alone.
func TestSimExecBatchInterleaving(t *testing.T) {
	c := NewSim(3, Options{Cost: sim.Paper()})
	ids := loadRingSim(t, c, 30, []string{"hot", "cold"})
	// Solo baseline.
	_, solo, err := c.Exec(1, closureQuery, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	queries := []BatchQuery{
		{Origin: 1, Body: closureQuery, Initial: ids[:1]},
		{Origin: 2, Body: closureQuery, Initial: ids[:1]},
		{Origin: 3, Body: closureQuery, Initial: ids[:1]},
	}
	results, times, err := c.ExecBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.IDs) != 15 {
			t.Errorf("query %d: %d results", i, len(res.IDs))
		}
		if times[i] < solo {
			t.Errorf("query %d finished in %v, faster than solo %v under 3x load", i, times[i], solo)
		}
	}
}

func TestLocalClusterBasic(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	res, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 15 {
		t.Errorf("results = %d, want 15", len(res.IDs))
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestLocalClusterRunsOverTransport pins the link LocalCluster runs on: every
// site of a cross-site query sends its frames through transport.TCP and has
// them acknowledged, so the in-process suites exercise production's framing,
// acks and retransmission rather than a link of their own.
func TestLocalClusterRunsOverTransport(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	if _, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Sites() {
		// Acks trail the frames they answer, so poll for them.
		if err := waitfor.Until(5*time.Second, func() bool {
			snap := c.Metrics(id).Snapshot()
			return snap.Counters["transport_frames_sent"] > 0 && snap.Counters["transport_acks_received"] > 0
		}); err != nil {
			snap := c.Metrics(id).Snapshot()
			t.Errorf("site %v: transport_frames_sent %d, transport_acks_received %d; want both > 0",
				id, snap.Counters["transport_frames_sent"], snap.Counters["transport_acks_received"])
		}
	}
}

// TestLocalClusterCompilesOncePerSite: every site keeps the plans it
// compiled, so a closure body run a second time over real servers compiles
// nowhere and is served from the cache at every involved site.
func TestLocalClusterCompilesOncePerSite(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	if _, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	before := map[object.SiteID]site.Stats{}
	for _, id := range c.Sites() {
		before[id] = c.SiteStats(id)
	}
	if _, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Sites() {
		st := c.SiteStats(id)
		if n := st.PlanCompiles - before[id].PlanCompiles; n != 0 {
			t.Errorf("site %v: second run compiled %d times, want 0", id, n)
		}
		if n := st.PlanCacheHits - before[id].PlanCacheHits; n < 1 {
			t.Errorf("site %v: second run hit the plan cache %d times, want >= 1", id, n)
		}
	}
}

// TestLocalClusterLocalQuerySendsOnlyComplete: a query whose objects all live
// at its origin engages no peer, so the origin sends one frame — the
// Complete — and no peer receives anything.
func TestLocalClusterLocalQuerySendsOnlyComplete(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	var ids []object.ID
	for i := 0; i < 4; i++ {
		o := c.Store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
		if err := c.Put(1, o); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.ID)
	}
	counter := func(id object.SiteID, name string) uint64 { return c.Metrics(id).Snapshot().Counters[name] }
	sent := counter(1, "transport_frames_sent")
	received := map[object.SiteID]uint64{}
	for _, id := range c.Sites() {
		received[id] = counter(id, "transport_frames_received")
	}
	res, err := c.Exec(1, `S (keyword, "hot", ?) -> T`, ids, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != len(ids) {
		t.Fatalf("results = %d, want %d", len(res.IDs), len(ids))
	}
	if n := counter(1, "transport_frames_sent") - sent; n != 1 {
		t.Errorf("origin sent %d frames, want 1 (the Complete)", n)
	}
	for _, id := range c.Sites()[1:] {
		if n := counter(id, "transport_frames_received") - received[id]; n != 0 {
			t.Errorf("peer %v received %d frames for a query that never left the origin", id, n)
		}
	}
}

// TestLocalClusterCrossingQueryFinishesPeers: a query that crossed sites
// still sends Finish to every live peer, so every site drops its context.
func TestLocalClusterCrossingQueryFinishesPeers(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	if _, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Sites() {
		if err := waitfor.Until(5*time.Second, func() bool { return c.SiteContexts(id) == 0 }); err != nil {
			t.Errorf("site %v still holds %d contexts after the query finished", id, c.SiteContexts(id))
		}
	}
}

// TestChainHopsRunOnReaders: on the paper's chain every hop is remote and
// strictly serial, so the transport reader that delivers a hop's Deref
// nearly always finds the turn free and runs the hop itself instead of
// waking its site's loop.
func TestChainHopsRunOnReaders(t *testing.T) {
	const n = 60 // every pointer crosses sites, the closing one included
	c := NewLocal(3, Options{})
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{N: n, Machines: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, workload.ClosureQueryKeyword("Chain", "Unique", "u7"), []object.ID{d.Root}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != d.IDs[7] {
		t.Fatalf("answer %v, want [%v]", res.IDs, d.IDs[7])
	}
	// A reader that finds the turn held leaves its hop to the holder, which
	// happens under CPU contention; it counts that in hf_turns_reader_busy.
	// Every hop is one or the other, and most run on their reader.
	var reader, busy, loop uint64
	for _, id := range c.Sites() {
		turns := c.Metrics(id).Snapshot().Counters
		reader += turns["hf_turns_reader"]
		busy += turns["hf_turns_reader_busy"]
		loop += turns["hf_turns_loop"]
	}
	if reader+busy < n || reader < 3*n/4 {
		t.Errorf("hf_turns_reader = %d, hf_turns_reader_busy = %d over the sites (loop %d), want a sum >= %d and readers >= %d", reader, busy, loop, n, 3*n/4)
	}
}

func TestLocalClusterConcurrentQueries(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		origin := object.SiteID(i%3 + 1)
		go func() {
			res, err := c.Exec(origin, closureQuery, ids[:1], 10*time.Second)
			if err == nil && len(res.IDs) != 15 {
				err = errors.New("wrong result size")
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestLocalClusterTimeoutPartial(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 12, []string{"hot"})
	c.SetDown(3, true)
	res, err := c.Exec(1, closureQuery, ids[:1], 300*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res == nil || !res.Partial {
		t.Errorf("expected partial results, got %+v", res)
	}
}

// TestLocalClusterSetDownRevives: a downed site's links heal when it comes
// back up, and the next query gets the full answer again.
func TestLocalClusterSetDownRevives(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 12, []string{"hot"})
	c.SetDown(3, true)
	res, err := c.Exec(1, closureQuery, ids[:1], 300*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("down: err = %v, want ErrTimeout", err)
	}
	if res == nil || !res.Partial || len(res.IDs) == 0 || len(res.IDs) >= 12 {
		t.Fatalf("down: want a non-empty partial answer, got %+v", res)
	}
	c.SetDown(3, false)
	res, err = c.Exec(1, closureQuery, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatalf("revived: %v", err)
	}
	if res.Partial || len(res.IDs) != 12 {
		t.Errorf("revived: %d results (partial %v), want all 12", len(res.IDs), res.Partial)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

func TestLocalClusterMigration(t *testing.T) {
	c := NewLocal(3, Options{UseNaming: true})
	defer c.Close()
	ids := loadRingLocal(t, c, 9, []string{"hot"})
	if err := c.Move(ids[2], 2); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, closureQuery, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Errorf("results = %d, want 9", len(res.IDs))
	}
}

func TestLocalClusterSeededFollowUp(t *testing.T) {
	c := NewLocal(2, Options{Ablation: site.Ablation{DistributedSetThreshold: 1}})
	defer c.Close()
	var members []object.ID
	for i := 0; i < 4; i++ {
		o := c.Store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
		if err := c.Put(2, o); err != nil {
			t.Fatal(err)
		}
		members = append(members, o.ID)
	}
	res, qid, err := c.ExecQID(1, `S (keyword, "hot", ?) -> T`, members, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Distributed || res.Count != 4 {
		t.Fatalf("first query = %+v", res)
	}
	res2, err := c.ExecSeeded(1, `S (keyword, "hot", ?) -> U`, qid, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != 4 {
		t.Errorf("seeded count = %d", res2.Count)
	}
}

func TestClusterAccessors(t *testing.T) {
	lc := NewLocal(2, Options{UseNaming: true})
	defer lc.Close()
	if lc.Directory(1) == nil || lc.Directory(2) == nil {
		t.Error("local directories missing under UseNaming")
	}
	st := lc.SiteStats(1)
	if st.Completed != 0 {
		t.Errorf("fresh site stats = %+v", st)
	}

	sc := NewSim(2, Options{Cost: sim.Paper(), UseNaming: true})
	if sc.Directory(1) == nil {
		t.Error("sim directory missing under UseNaming")
	}
	if sc.Now() != 0 {
		t.Errorf("fresh sim time = %v", sc.Now())
	}
	o := sc.Store(1).NewObject().Add("keyword", object.Keyword("x"), object.Value{})
	if err := sc.Put(1, o); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Exec(1, `S (keyword, "x", ?) -> T`, []object.ID{o.ID}); err != nil {
		t.Fatal(err)
	}
	if sc.Now() == 0 {
		t.Error("sim time did not advance")
	}
	if sc.SiteStats(1).Completed != 1 {
		t.Errorf("sim site stats = %+v", sc.SiteStats(1))
	}
}

func TestMoveWithoutNamingFails(t *testing.T) {
	c := NewSim(2, Options{Cost: sim.Free()})
	o := c.Store(1).NewObject()
	if err := c.Put(1, o); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(o.ID, 2); err == nil {
		t.Error("Move without UseNaming should fail")
	}
}

func TestLocalClusterClosedExec(t *testing.T) {
	c := NewLocal(1, Options{})
	c.Close()
	if _, err := c.Exec(1, `S (a, ?, ?) -> T`, nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestLocalClusterChaosDropDup is the headline robustness check: a
// multi-site transitive closure over a network that drops 10% and duplicates
// 5% of inter-site messages must still produce the exact answer —
// retransmission recovers losses and receiver dedup keeps duplicated derefs
// from double-counting termination credit.
func TestLocalClusterChaosDropDup(t *testing.T) {
	c := NewLocal(3, Options{Chaos: &chaos.Config{Seed: 42, DropRate: 0.10, DupRate: 0.05}})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	res, err := c.Exec(1, closureQuery, ids[:1], 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 15 {
		t.Errorf("results = %d, want 15", len(res.IDs))
	}
	if res.Partial || len(res.Unreachable) != 0 {
		t.Errorf("answer marked partial with no dead sites: %+v", res)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestLocalClusterChaosDelayReorder piles delay and reordering on top of
// loss and duplication.
func TestLocalClusterChaosDelayReorder(t *testing.T) {
	c := NewLocal(3, Options{Chaos: &chaos.Config{
		Seed: 9, DropRate: 0.20, DupRate: 0.10,
		DelayRate: 0.40, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		ReorderRate: 0.30,
	}})
	defer c.Close()
	ids := loadRingLocal(t, c, 18, []string{"hot", "cold"})
	res, err := c.Exec(2, closureQuery, ids[:1], 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Errorf("results = %d, want 9", len(res.IDs))
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestLocalClusterPartitionPartialAnswer isolates a site before the query
// starts. The failure detector declares it dead at the live sites, derefs to
// it are suppressed, and the query terminates normally with a partial answer
// naming the unreachable site.
func TestLocalClusterPartitionPartialAnswer(t *testing.T) {
	c := NewLocal(3, Options{
		Chaos:  &chaos.Config{Seed: 7},
		Tuning: site.Tuning{HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: 50 * time.Millisecond},
	})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	c.Injector().Isolate(3, []object.SiteID{1, 2})
	// Wait until the detector at both live sites has declared site 3 dead.
	if err := waitfor.Until(5*time.Second, func() bool {
		return c.PeerIsDown(1, 3) && c.PeerIsDown(2, 3)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Errorf("expected a partial answer, got %+v", res)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != 3 {
		t.Errorf("Unreachable = %v, want [3]", res.Unreachable)
	}
	for _, id := range res.IDs {
		if id.Birth == 3 {
			t.Errorf("result %v came from the dead site", id)
		}
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestLocalClusterPartitionMidQueryForcedPartial spans the initial set
// across the partition so the originator engages the dead site before the
// detector fires: its credit parks at the partitioned site and the
// originator must force-complete with a partial answer once the peer is
// declared dead. (If detection wins the race instead, the deref is
// suppressed and the observable outcome is identical.)
func TestLocalClusterPartitionMidQueryForcedPartial(t *testing.T) {
	c := NewLocal(3, Options{
		Chaos:  &chaos.Config{Seed: 5},
		Tuning: site.Tuning{HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: 50 * time.Millisecond},
	})
	defer c.Close()
	var ids []object.ID
	for _, sid := range c.Sites() {
		o := c.Store(sid).NewObject()
		o.Add("keyword", object.Keyword("hot"), object.Value{})
		if err := c.Put(o.ID.Birth, o); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.ID)
	}
	c.Injector().Isolate(3, []object.SiteID{1, 2})
	res, err := c.Exec(1, `S (keyword, "hot", ?) -> T`, ids, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Errorf("expected a partial answer, got %+v", res)
	}
	var named bool
	for _, u := range res.Unreachable {
		named = named || u == 3
	}
	if !named {
		t.Errorf("Unreachable = %v, want to include 3", res.Unreachable)
	}
	var gotLocal, gotDead bool
	for _, id := range res.IDs {
		gotLocal = gotLocal || id == ids[0]
		gotDead = gotDead || id == ids[2]
	}
	if !gotLocal {
		t.Errorf("results %v missing the originator's own object", res.IDs)
	}
	if gotDead {
		t.Errorf("results %v include the dead site's object", res.IDs)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestLocalClusterPartitionHealRecovers checks the PeerUp path end to end: a
// healed partition is noticed by the heartbeat exchange and later queries
// return full answers again.
func TestLocalClusterPartitionHealRecovers(t *testing.T) {
	c := NewLocal(3, Options{
		Chaos:  &chaos.Config{Seed: 3},
		Tuning: site.Tuning{HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: 50 * time.Millisecond},
	})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	inj := c.Injector()
	inj.Isolate(3, []object.SiteID{1, 2})
	if err := waitfor.Until(5*time.Second, func() bool {
		return c.PeerIsDown(1, 3) && c.PeerIsDown(2, 3)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("expected a partial answer during the partition, got %+v", res)
	}
	inj.HealAll()
	if werr := waitfor.Until(10*time.Second, func() bool {
		res, err = c.Exec(1, closureQuery, ids[:1], 15*time.Second)
		if err != nil {
			return true // surface the error outside the poll
		}
		return !res.Partial && len(res.IDs) == 15
	}); werr != nil {
		t.Fatalf("cluster never recovered after heal: %+v", res)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}
