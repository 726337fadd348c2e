package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// buildRandomTree stores a random tree (every node except the root has one
// parent) and returns ids plus each node's depth (root = 1, matching the
// paper's iteration numbering).
func buildRandomTree(t *testing.T, s *store.Store, n int, seed int64) ([]object.ID, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = s.NewObject()
	}
	depth := make([]int, n)
	depth[0] = 1
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		objs[parent].Add("Pointer", object.String("Child"), object.Pointer(objs[i].ID))
		depth[i] = depth[parent] + 1
	}
	// Self-loop leaves so that the closure's selection never drops them
	// (literal semantics), keeping depth the only discriminator.
	for i, o := range objs {
		if len(o.Pointers("Pointer", "Child")) == 0 {
			o.Add("Pointer", object.String("Child"), object.Pointer(objs[i].ID))
		}
		o.Add("keyword", object.Keyword("k"), object.Value{})
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids, depth
}

// TestBoundedIterationDepthProperty: under the paper's operational
// semantics (Figure 3), a k-bounded iterator admits exactly the nodes whose
// pointer-chain length from the root is at most max(k, 2): initial objects
// always traverse the body once before reaching the iterator marker, so
// their direct children exist for every k, and an object of chain length d
// re-enters the body only while d < k. This matches the paper's worked
// example (k=3 admits chain lengths 1..3 and never examines depth 4).
func TestBoundedIterationDepthProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := store.New(1)
		ids, depth := buildRandomTree(t, s, 40, seed)
		for _, k := range []int{1, 2, 3, 5} {
			src := fmt.Sprintf(
				`S [ (Pointer, "Child", ?X) ^^X ]*%d (keyword, "k", ?) -> T`, k)
			res, _ := run(t, s, src, ids[0])
			limit := k
			if limit < 2 {
				limit = 2
			}
			want := object.NewIDSet()
			for i, d := range depth {
				if d <= limit {
					want.Add(ids[i])
				}
			}
			if !res.Equal(want) {
				t.Errorf("seed %d k %d: got %v want %v (depths %v)", seed, k, res, want, depth)
			}
		}
	}
}

// buildRandomDAG stores n objects whose (Pointer, "L") tuples form a random
// DAG: each object points at one to three of the four after it, so most
// objects have several chains of different lengths from the first. The last
// object points at itself, so the body's selection never drops it. It
// returns the ids and each object's shortest chain length from the first
// (1 for the first, 0 if unreached).
func buildRandomDAG(t *testing.T, s *store.Store, n int, seed int64) ([]object.ID, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = s.NewObject()
	}
	depth := make([]int, n)
	depth[0] = 1
	ids := make([]object.ID, n)
	for i, o := range objs {
		if i == n-1 {
			o.Add("Pointer", object.String("L"), object.Pointer(o.ID))
		}
		for range min(rng.Intn(3)+1, n-1-i) {
			to := i + 1 + rng.Intn(min(4, n-1-i))
			o.Add("Pointer", object.String("L"), object.Pointer(objs[to].ID))
			if depth[i] > 0 && (depth[to] == 0 || depth[i]+1 < depth[to]) {
				depth[to] = depth[i] + 1
			}
		}
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID
	}
	return ids, depth
}

// TestBoundedIterationOnDAGs: a k-bounded iterator admits exactly the
// objects with some pointer chain of length at most max(k, 2), whatever
// order the working set visits them in. Depth-first order reaches many
// objects through a longer chain first; the mark of that visit must not
// hide the shorter one.
func TestBoundedIterationOnDAGs(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		s := store.New(1)
		ids, depth := buildRandomDAG(t, s, 30, seed)
		for k := 1; k <= 5; k++ {
			c := query.MustCompile(fmt.Sprintf(`S [ (Pointer, "L", ?X) ^^X ]*%d -> T`, k))
			want := object.NewIDSet()
			for i, d := range depth {
				if d > 0 && d <= max(k, 2) {
					want.Add(ids[i])
				}
			}
			for _, order := range []Order{BFS, DFS} {
				e := New(c, s, WithOrder(order))
				e.AddInitial(ids[0])
				e.Run()
				if got := e.Results(); !got.Equal(want) {
					t.Errorf("seed %d k %d %v: got %v want %v (depths %v)", seed, k, order, got, want, depth)
				}
			}
			for _, workers := range []int{2, 4} {
				if got := RunParallel(c, s, workers, ids[:1]).Results; !got.Equal(want) {
					t.Errorf("seed %d k %d %d workers: got %v want %v (depths %v)", seed, k, workers, got, want, depth)
				}
			}
		}
	}
}

// TestClosureEqualsLargeBound: on a finite graph, a bound at least the
// graph's diameter is equivalent to the closure.
func TestClosureEqualsLargeBound(t *testing.T) {
	s := store.New(1)
	ids, _ := buildRandomTree(t, s, 30, 42)
	closure, _ := run(t, s,
		`S [ (Pointer, "Child", ?X) ^^X ]** (keyword, "k", ?) -> T`, ids[0])
	bounded, _ := run(t, s,
		`S [ (Pointer, "Child", ?X) ^^X ]*40 (keyword, "k", ?) -> T`, ids[0])
	if !closure.Equal(bounded) {
		t.Errorf("closure %v != deep bound %v", closure, bounded)
	}
}

// TestNestedIteratorsHandTraced pins the exact semantics of nested
// iterators on a hand-traced example.
//
// Query: S [ (P, "a", ?X) ^^X [ (P, "b", ?Y) ^^Y ]*2 ]*2 (k, "k", ?) -> T
// Graph: s -a-> a1; a1 -b-> b1 -b-> b2; s -b-> sb1.
//
//   - s: initial, passes both iterator markers (start 0), in T.
//   - a1: outer chain length 2 >= 2, exits outer by count after spawning b1
//     through the inner body, in T.
//   - b1: inner chain length 2 >= 2 exits inner by count, outer counter
//     inherited from a1 (2 >= 2) exits outer, in T; it never re-enters the
//     inner body so b2 is never created.
//   - sb1: exits the inner iterator by count but loops back through the
//     outer body, where it fails the (P, "a", ?X) selection: dropped.
func TestNestedIteratorsHandTraced(t *testing.T) {
	s := store.New(1)
	mk := func() *object.Object {
		o := s.NewObject().Add("k", object.Keyword("k"), object.Value{})
		return o
	}
	root, a1, b1, b2, sb1 := mk(), mk(), mk(), mk(), mk()
	root.Add("P", object.String("a"), object.Pointer(a1.ID))
	root.Add("P", object.String("b"), object.Pointer(sb1.ID))
	a1.Add("P", object.String("b"), object.Pointer(b1.ID))
	b1.Add("P", object.String("b"), object.Pointer(b2.ID))
	for _, o := range []*object.Object{root, a1, b1, b2, sb1} {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	res, e := run(t, s,
		`S [ (P, "a", ?X) ^^X [ (P, "b", ?Y) ^^Y ]*2 ]*2 (k, "k", ?) -> T`,
		root.ID)
	want := object.NewIDSet(root.ID, a1.ID, b1.ID)
	if !res.Equal(want) {
		t.Errorf("results = %v, want %v", res, want)
	}
	// b2 must never even be examined.
	if e.Stats().Processed != 4 {
		t.Errorf("processed = %d, want 4 (s, a1, b1, sb1)", e.Stats().Processed)
	}
}

// TestEnqueueResetsTransientState: arriving items start with empty bindings
// and next == start, per the remote-dereference message semantics.
func TestEnqueueResetsTransientState(t *testing.T) {
	s := store.New(1)
	o := s.NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	c := query.MustCompile(`S (keyword, "k", ?) -> T`)
	e := New(c, s)
	e.Enqueue(Item{ID: o.ID, Start: 0, Next: 99 /* stale */})
	e.Run()
	if !e.Results().Has(o.ID) {
		t.Errorf("stale Next not reset: %v", e.Results())
	}
}

// TestRetrievalInsideIterator: a fetch pattern inside an iterator body fires
// once per object that passes it (mark table suppresses reprocessing).
func TestRetrievalInsideIterator(t *testing.T) {
	s := store.New(1)
	ids, _ := buildRandomTree(t, s, 12, 3)
	c := query.MustCompile(
		`S [ (Pointer, "Child", ?X) ^^X (keyword, ->kw, ?) ]** (keyword, "k", ?) -> T`)
	e := New(c, s)
	e.AddInitial(ids[0])
	e.Run()
	results, fetches := e.TakeResults()
	fetchedFrom := object.NewIDSet()
	for _, f := range fetches {
		if f.Var != "kw" {
			t.Fatalf("unexpected fetch %v", f)
		}
		fetchedFrom.Add(f.From)
	}
	// Every object in the closure passed the body's keyword fetch at least
	// once; dedup-by-source must equal the result set.
	if !fetchedFrom.Equal(object.NewIDSet(results...)) {
		t.Errorf("fetch sources %v != results %v", fetchedFrom, results)
	}
}
