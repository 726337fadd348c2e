package engine

import (
	"math/rand"
	"slices"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// buildChain stores a cyclic chain o1 -> o2 -> ... -> on -> o1 of n objects
// linked by (Pointer, "Reference") tuples, each also carrying a keyword
// tuple, and returns the ids in chain order. The chain wraps so that every
// object has an outgoing pointer: under the paper's literal semantics an
// object with no matching pointer tuple fails the selection filter inside a
// closure body and is dropped before any later keyword check.
func buildChain(t *testing.T, s *store.Store, n int, keyword string) []object.ID {
	t.Helper()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = s.NewObject()
	}
	for i, o := range objs {
		o.Add("keyword", object.Keyword(keyword), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%n].ID))
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

func run(t *testing.T, s *store.Store, src string, initial ...object.ID) (object.IDSet, *Engine) {
	t.Helper()
	c, err := query.Compile(query.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, s)
	e.AddInitial(initial...)
	e.Run()
	return e.Results(), e
}

// TestPaperBoundedIterationExample reproduces the worked example of section
// 3.1: chain A->B->C->D, iterator bound 3; the query must return objects with
// the keyword among {A, B, C} and never examine D ("4 levels deep").
func TestPaperBoundedIterationExample(t *testing.T) {
	s := store.New(1)
	ids := buildChain(t, s, 4, "Distributed")
	res, e := run(t, s,
		`S [ (Pointer, "Reference", ?X) ^^X ]*3 (keyword, "Distributed", ?) -> T`,
		ids[0])
	want := object.NewIDSet(ids[0], ids[1], ids[2])
	if !res.Equal(want) {
		t.Errorf("results = %v, want %v", res, want)
	}
	if e.Stats().Processed != 3 {
		t.Errorf("processed %d objects, want 3 (D must not be examined)", e.Stats().Processed)
	}
}

func TestClosureTraversesWholeChain(t *testing.T) {
	s := store.New(1)
	ids := buildChain(t, s, 10, "db")
	res, _ := run(t, s,
		`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "db", ?) -> T`,
		ids[0])
	if len(res) != 10 {
		t.Errorf("closure returned %d objects, want 10", len(res))
	}
}

func TestClosureTerminatesOnCycle(t *testing.T) {
	s := store.New(1)
	a := s.NewObject()
	b := s.NewObject()
	c := s.NewObject()
	a.Add("Pointer", object.String("Reference"), object.Pointer(b.ID)).
		Add("keyword", object.Keyword("k"), object.Value{})
	b.Add("Pointer", object.String("Reference"), object.Pointer(c.ID)).
		Add("keyword", object.Keyword("k"), object.Value{})
	c.Add("Pointer", object.String("Reference"), object.Pointer(a.ID)). // cycle
										Add("keyword", object.Keyword("k"), object.Value{})
	for _, o := range []*object.Object{a, b, c} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, e := run(t, s,
		`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "k", ?) -> T`,
		a.ID)
	if len(res) != 3 {
		t.Errorf("results = %v, want all 3", res)
	}
	// The cycle generates duplicate working-set entries which must be
	// suppressed by the mark table, not processed forever.
	if e.Stats().Skipped == 0 {
		t.Errorf("expected duplicate suppression on the cycle")
	}
}

func TestSelectionFiltering(t *testing.T) {
	s := store.New(1)
	match := s.NewObject().Add("String", object.String("Author"), object.String("Joe Programmer"))
	other := s.NewObject().Add("String", object.String("Author"), object.String("Someone Else"))
	for _, o := range []*object.Object{match, other} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := run(t, s, `S (String, "Author", "Joe Programmer") -> T`, match.ID, other.ID)
	if !res.Equal(object.NewIDSet(match.ID)) {
		t.Errorf("results = %v", res)
	}
}

// TestDerefKeepVsDrop checks the ⇑⇑ (keep both) vs ⇑ (referenced only)
// distinction: with ^X the pointing object must not reach the result set.
func TestDerefKeepVsDrop(t *testing.T) {
	s := store.New(1)
	callee := s.NewObject().Add("String", object.String("Author"), object.String("Joe"))
	caller := s.NewObject().
		Add("String", object.String("Author"), object.String("Joe")).
		Add("Pointer", object.String("Called Routine"), object.Pointer(callee.ID))
	for _, o := range []*object.Object{callee, caller} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}

	resKeep, _ := run(t, s,
		`S (Pointer, "Called Routine", ?X) ^^X (String, "Author", "Joe") -> T`,
		caller.ID)
	if !resKeep.Equal(object.NewIDSet(caller.ID, callee.ID)) {
		t.Errorf("^^ results = %v, want both", resKeep)
	}

	resDrop, _ := run(t, s,
		`S (Pointer, "Called Routine", ?X) ^X (String, "Author", "Joe") -> T`,
		caller.ID)
	if !resDrop.Equal(object.NewIDSet(callee.ID)) {
		t.Errorf("^ results = %v, want callee only", resDrop)
	}
}

// TestMarkTableStartRefinement reproduces the paper's subtlety: an object
// that failed filter F1 must still be processed when reached later by a
// dereference that starts it at F3.
func TestMarkTableStartRefinement(t *testing.T) {
	s := store.New(1)
	// O fails the first selection but carries the keyword checked after the
	// dereference stage.
	o := s.NewObject().Add("keyword", object.Keyword("wanted"), object.Value{})
	// P passes the first selection and points at O.
	p := s.NewObject().
		Add("String", object.String("class"), object.String("hub")).
		Add("Pointer", object.String("Link"), object.Pointer(o.ID)).
		Add("keyword", object.Keyword("wanted"), object.Value{})
	for _, ob := range []*object.Object{o, p} {
		if err := s.Put(ob); err != nil {
			t.Fatal(err)
		}
	}
	// Both O and P are in the initial set. O fails F1 (and is marked at 0);
	// P's dereference re-introduces O starting at F3 where it must pass.
	res, _ := run(t, s,
		`S (String, "class", "hub") (Pointer, "Link", ?X) ^^X (keyword, "wanted", ?) -> T`,
		o.ID, p.ID)
	if !res.Equal(object.NewIDSet(o.ID, p.ID)) {
		t.Errorf("results = %v, want O rescued via deref", res)
	}
}

func TestNestedIterators(t *testing.T) {
	s := store.New(1)
	// a --outer--> b; b --inner--> c --inner--> d (inner bound 2 allows b,c
	// chains; d is at inner chain length 3 from b).
	d := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	c := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{}).
		Add("Pointer", object.String("inner"), object.Pointer(d.ID))
	b := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{}).
		Add("Pointer", object.String("inner"), object.Pointer(c.ID))
	// a needs an "inner" pointer too: under literal semantics an object with
	// no tuple matching the inner selection dies inside the inner body.
	a := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{}).
		Add("Pointer", object.String("outer"), object.Pointer(b.ID)).
		Add("Pointer", object.String("inner"), object.Pointer(b.ID))
	for _, o := range []*object.Object{a, b, c, d} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := run(t, s,
		`S [ (Pointer, "outer", ?X) ^^X [ (Pointer, "inner", ?Y) ^^Y ]*2 ]*2 (keyword, "k", ?) -> T`,
		a.ID)
	// a passes; b via outer; c via inner chain length 2; d would need inner
	// chain length 3 > 2, so c exits the inner iterator by count without
	// re-entering the body and d is never even created.
	want := object.NewIDSet(a.ID, b.ID, c.ID)
	if !res.Equal(want) {
		t.Errorf("results = %v, want %v", res, want)
	}
}

func TestMatchingVariableJoin(t *testing.T) {
	s := store.New(1)
	// Find modules maintained by one of their own authors.
	good := s.NewObject().
		Add("String", object.String("Author"), object.String("ann")).
		Add("String", object.String("Maintainer"), object.String("ann"))
	bad := s.NewObject().
		Add("String", object.String("Author"), object.String("bob")).
		Add("String", object.String("Maintainer"), object.String("eve"))
	for _, o := range []*object.Object{good, bad} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := run(t, s,
		`S (String, "Author", ?A) (String, "Maintainer", $A) -> T`,
		good.ID, bad.ID)
	if !res.Equal(object.NewIDSet(good.ID)) {
		t.Errorf("results = %v", res)
	}
}

// TestBindingsStayPerObject: the engine's one environment is emptied between
// objects. A binds ?X to a pointer to B, and B — processed next, with no
// tuple that binds X — is tested by $X against a tuple holding that same
// pointer: A's binding must not match it.
func TestBindingsStayPerObject(t *testing.T) {
	s := store.New(1)
	a, b := s.NewObject(), s.NewObject()
	a.Add("Pointer", object.String("Next"), object.Pointer(b.ID))
	b.Add("Self", object.Pointer(b.ID), object.Value{})
	for _, o := range []*object.Object{a, b} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, e := run(t, s, `S (Pointer, "Next", ?X) ^X (Self, $X, ?) -> T`, a.ID)
	if len(res) != 0 {
		t.Errorf("results = %v, want none: B matched A's binding of X", res)
	}
	if st := e.Stats(); st.Processed != 2 || st.LocalDerefs != 1 {
		t.Errorf("stats %+v: want A and B processed, one dereference", st)
	}
}

// TestTwoVariableBindings: one object binds ?X three times, once to a
// duplicate value, and ?Y twice. Each variable dereferences exactly its own
// distinct values: two from X and two from Y.
func TestTwoVariableBindings(t *testing.T) {
	s := store.New(1)
	a, b, c, d := s.NewObject(), s.NewObject(), s.NewObject(), s.NewObject()
	for _, to := range []*object.Object{b, c, b} {
		a.Add("Pointer", object.String("L"), object.Pointer(to.ID))
	}
	for _, to := range []*object.Object{c, d} {
		a.Add("Pointer", object.String("R"), object.Pointer(to.ID))
	}
	for _, o := range []*object.Object{a, b, c, d} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	// B and C arrive through X at the Y selection, which they fail; C and D
	// arrive through Y at the end of the list and pass.
	res, e := run(t, s, `S (Pointer, "L", ?X) ^^X (Pointer, "R", ?Y) ^Y -> T`, a.ID)
	if !res.Equal(object.NewIDSet(c.ID, d.ID)) {
		t.Errorf("results = %v, want C and D", res)
	}
	if st := e.Stats(); st.LocalDerefs != 4 {
		t.Errorf("stats %+v: want 4 dereferences, 2 per variable", st)
	}
}

func TestFetchRetrieval(t *testing.T) {
	s := store.New(1)
	o := s.NewObject().
		Add("String", object.String("Author"), object.String("Chris Clifton")).
		Add("String", object.String("Title"), object.String("HyperFile"))
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	_, e := run(t, s,
		`S (String, "Author", "Chris Clifton") (String, "Title", ->title) -> T`,
		o.ID)
	_, fetches := e.TakeResults()
	if len(fetches) != 1 {
		t.Fatalf("fetches = %v", fetches)
	}
	f := fetches[0]
	if f.Var != "title" || f.From != o.ID || f.Val.Str != "HyperFile" {
		t.Errorf("fetch = %+v", f)
	}
	if e.Stats().Fetched != 1 {
		t.Errorf("Fetched = %d", e.Stats().Fetched)
	}
}

func TestRemoteRefsSurfaced(t *testing.T) {
	s := store.New(1)
	remoteID := object.ID{Birth: 2, Seq: 1}
	local := s.NewObject().
		Add("Pointer", object.String("Reference"), object.Pointer(remoteID)).
		Add("keyword", object.Keyword("k"), object.Value{})
	if err := s.Put(local); err != nil {
		t.Fatal(err)
	}
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "k", ?) -> T`)
	e := New(c, s, WithLocator(birthLocator(1)))
	e.AddInitial(local.ID)

	var remote []RemoteRef
	for {
		step, ok := e.Step()
		if !ok {
			break
		}
		remote = append(remote, step.Remote...)
	}
	if len(remote) != 1 {
		t.Fatalf("remote refs = %v, want 1", remote)
	}
	r := remote[0]
	if r.ID != remoteID {
		t.Errorf("remote id = %v", r.ID)
	}
	if r.Start != 2 {
		t.Errorf("remote start = %d, want 2 (filter after the deref)", r.Start)
	}
	if e.Stats().RemoteDerefs != 1 {
		t.Errorf("RemoteDerefs = %d", e.Stats().RemoteDerefs)
	}
}

// birthLocator treats ids as local when their birth site matches.
type birthLocator object.SiteID

func (b birthLocator) IsLocal(id object.ID) bool { return id.Birth == object.SiteID(b) }

func TestEnqueueRemoteArrival(t *testing.T) {
	s := store.New(2)
	o := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	// Self-pointer so that o survives the closure body's selection when it
	// loops back (literal semantics).
	o.Add("Pointer", object.String("Reference"), object.Pointer(o.ID))
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "k", ?) -> T`)
	e := New(c, s, WithLocator(birthLocator(2)))
	// Simulate a Deref message arriving: start after the deref (=2).
	e.Enqueue(Item{ID: o.ID, Start: 2})
	e.Run()
	if !e.Results().Equal(object.NewIDSet(o.ID)) {
		t.Errorf("results = %v", e.Results())
	}
}

func TestMissingObjectsAreDropped(t *testing.T) {
	s := store.New(1)
	res, e := run(t, s, `S (keyword, "k", ?) -> T`, object.ID{Birth: 1, Seq: 77})
	if len(res) != 0 {
		t.Errorf("results = %v, want empty", res)
	}
	if e.Stats().Missing != 1 {
		t.Errorf("Missing = %d", e.Stats().Missing)
	}
}

func TestTakeResultsResets(t *testing.T) {
	s := store.New(1)
	o := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	_, e := run(t, s, `S (keyword, "k", ?) -> T`, o.ID)
	r1, _ := e.TakeResults()
	if len(r1) != 1 {
		t.Fatalf("first TakeResults = %v", r1)
	}
	r2, _ := e.TakeResults()
	if len(r2) != 0 {
		t.Errorf("second TakeResults = %v, want empty", r2)
	}
}

// TestBFSAndDFSSameResults: the working-set discipline changes the search
// order but never the answer (results are a set).
func TestBFSAndDFSSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := store.New(1)
	const n = 60
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = s.NewObject()
	}
	for i, o := range objs {
		if rng.Intn(2) == 0 {
			o.Add("keyword", object.Keyword("hot"), object.Value{})
		}
		for j := 0; j < 2; j++ {
			o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(n)].ID))
		}
		_ = i
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`)
	eb := New(c, s, WithOrder(BFS))
	ed := New(c, s, WithOrder(DFS))
	eb.AddInitial(objs[0].ID)
	ed.AddInitial(objs[0].ID)
	eb.Run()
	ed.Run()
	if !eb.Results().Equal(ed.Results()) {
		t.Errorf("BFS results %v != DFS results %v", eb.Results(), ed.Results())
	}
}

// TestClosureMatchesIndependentBFS is a property test: on random graphs the
// engine's closure query must return exactly the reachable objects carrying
// the keyword, as computed by a plain BFS.
func TestClosureMatchesIndependentBFS(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := store.New(1)
		n := 5 + rng.Intn(40)
		objs := make([]*object.Object, n)
		for i := range objs {
			objs[i] = s.NewObject()
		}
		hot := make([]bool, n)
		adj := make([][]int, n)
		for i, o := range objs {
			if rng.Intn(3) == 0 {
				hot[i] = true
				o.Add("keyword", object.Keyword("hot"), object.Value{})
			}
			deg := rng.Intn(4)
			for j := 0; j < deg; j++ {
				tgt := rng.Intn(n)
				adj[i] = append(adj[i], tgt)
				o.Add("Pointer", object.String("Reference"), object.Pointer(objs[tgt].ID))
			}
			if err := s.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		// Independent reachability. Under the paper's literal semantics an
		// object must also pass the pointer selection when (re)entering the
		// closure body, so pointer-less objects never reach the keyword
		// check: the expected set requires outdegree >= 1.
		want := object.NewIDSet()
		seen := make([]bool, n)
		queue := []int{0}
		seen[0] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if hot[u] && len(adj[u]) > 0 {
				want.Add(objs[u].ID)
			}
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		res, _ := run(t, s,
			`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`,
			objs[0].ID)
		if !res.Equal(want) {
			t.Errorf("seed %d: results = %v, want %v", seed, res, want)
		}
	}
}

// TestIdempotentReprocessing: enqueueing the same initial object twice must
// not duplicate work (set-based results, mark-table suppression).
func TestIdempotentReprocessing(t *testing.T) {
	s := store.New(1)
	o := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	res, e := run(t, s, `S (keyword, "k", ?) -> T`, o.ID, o.ID)
	if len(res) != 1 {
		t.Errorf("results = %v", res)
	}
	if e.Stats().Processed != 1 || e.Stats().Skipped != 1 {
		t.Errorf("stats = %+v, want 1 processed 1 skipped", e.Stats())
	}
}

func TestRunReturnsDeltaStats(t *testing.T) {
	s := store.New(1)
	ids := buildChain(t, s, 3, "k")
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "k", ?) -> T`)
	e := New(c, s)
	e.AddInitial(ids[0])
	first := e.Run()
	// Cyclic 3-chain: all 3 processed and pass; the wrap-around pointer
	// re-spawns the first object, suppressed by the mark table.
	if first.Processed != 3 || first.Results != 3 || first.Skipped != 1 {
		t.Errorf("first run stats = %+v", first)
	}
	e.AddInitial(ids[0]) // duplicate: all marked
	second := e.Run()
	if second.Processed != 0 || second.Skipped != 1 {
		t.Errorf("second run stats = %+v", second)
	}
}

func TestWildcardPointerDeref(t *testing.T) {
	s := store.New(1)
	lib := s.NewObject().Add("String", object.String("Author"), object.String("Joe"))
	callee := s.NewObject().Add("String", object.String("Author"), object.String("Joe"))
	caller := s.NewObject().
		Add("Pointer", object.String("Called Routine"), object.Pointer(callee.ID)).
		Add("Pointer", object.String("Library"), object.Pointer(lib.ID))
	for _, o := range []*object.Object{lib, callee, caller} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	// Wildcard key follows both pointer categories (paper: "we could use a
	// wild card in place of the key Called Routine if we wished to follow
	// all pointers, such as the Library pointer").
	res, _ := run(t, s, `S (Pointer, ?, ?X) ^X (String, "Author", "Joe") -> T`, caller.ID)
	if !res.Equal(object.NewIDSet(lib.ID, callee.ID)) {
		t.Errorf("results = %v", res)
	}
}

// revisitQuery reaches an object at two start positions: through the
// Ref closure (start 2, looping back to the body) and through the Alt
// dereference after it (start 5, the final selection only).
const revisitQuery = `S [ (Pointer, "Ref", ?X) ^^X ]** (Pointer, "Alt", ?Y) ^^Y (keyword, "hot", ?) -> T`

// putRevisit stores the revisit fixture in s: a has Ref->q and Alt->p, q
// has Ref->p, and p has Ref->q and Alt->a, all "hot". Run from a, BFS
// processes p at start 5 (from a's Alt) before p at start 2 (from q's Ref),
// and the first visit marks only filter 5, so p passes twice in one drain.
// q has no Alt tuple and never passes. p is created first, so the order
// results are added in (a, p, p) is not sorted.
func putRevisit(t *testing.T, s *store.Store) (a, p object.ID) {
	t.Helper()
	po, qo, ao := s.NewObject(), s.NewObject(), s.NewObject()
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
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return ao.ID, po.ID
}

// TestTakeResultsDedupsRevisits: an object that passes at two start
// positions is added to the results twice; TakeResults returns it once, in
// ID order, while Stats.Results still counts both passes.
func TestTakeResultsDedupsRevisits(t *testing.T) {
	s := store.New(1)
	a, p := putRevisit(t, s)
	e := New(query.MustCompile(revisitQuery), s)
	defer e.ReleaseScratch()
	e.AddInitial(a)
	st := e.Run()
	if st.Results != 3 {
		t.Fatalf("Stats.Results = %d, want 3 (a once, p twice): the fixture must revisit", st.Results)
	}
	if got := e.Results(); !got.Equal(object.NewIDSet(a, p)) {
		t.Errorf("Results() = %v, want {a, p}", got)
	}
	got, _ := e.TakeResults()
	if want := []object.ID{p, a}; !slices.Equal(got, want) {
		t.Errorf("TakeResults = %v, want %v", got, want)
	}
	if again, _ := e.TakeResults(); len(again) != 0 {
		t.Errorf("second TakeResults = %v, want empty", again)
	}
}
