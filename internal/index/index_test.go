package index

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/store"
)

func buildDocs(t *testing.T, n int, seed int64) (*store.Store, []*object.Object) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := store.New(1)
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = st.NewObject()
	}
	for i, o := range objs {
		o.Add("keyword", object.Keyword(fmt.Sprintf("k%d", i%5)), object.Value{})
		o.Add("Rand10", object.Int(int64(1+rng.Intn(10))), object.Value{})
		for j := 0; j < 2; j++ {
			o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(n)].ID))
		}
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return st, objs
}

func TestKeywordLookup(t *testing.T) {
	st, objs := buildDocs(t, 25, 1)
	ix := BuildKeyword(st)
	got := ix.Lookup("keyword", "k3")
	want := make(object.IDSet)
	for i, o := range objs {
		if i%5 == 3 {
			want.Add(o.ID)
		}
	}
	if !got.Equal(want) {
		t.Errorf("Lookup(k3) = %v, want %v", got, want)
	}
	if len(ix.Lookup("keyword", "nope")) != 0 {
		t.Errorf("lookup of absent term non-empty")
	}
	if ix.Terms() == 0 {
		t.Errorf("no terms indexed")
	}
}

func TestKeywordNumericKeys(t *testing.T) {
	st, _ := buildDocs(t, 40, 2)
	ix := BuildKeyword(st)
	total := 0
	for k := 1; k <= 10; k++ {
		total += len(ix.Lookup("Rand10", fmt.Sprintf("%d", k)))
	}
	if total != 40 {
		t.Errorf("Rand10 buckets sum to %d, want 40", total)
	}
}

func TestKeywordInsert(t *testing.T) {
	st := store.New(1)
	o := st.NewObject().Add("keyword", object.Keyword("solo"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	ix := NewKeyword()
	ix.Insert(o)
	if len(ix.Lookup("keyword", "solo")) != 1 {
		t.Fatal("insert failed")
	}
}

func TestReachMatchesBFS(t *testing.T) {
	st, objs := buildDocs(t, 30, 3)
	ix := BuildReach(st, "Reference")
	// Independent BFS for a few roots.
	for _, root := range []int{0, 7, 29} {
		want := make(object.IDSet)
		var walk func(id object.ID)
		seen := make(object.IDSet)
		walk = func(id object.ID) {
			if seen.Has(id) {
				return
			}
			seen.Add(id)
			want.Add(id)
			o, _ := st.Get(id)
			for _, nxt := range o.Pointers("Pointer", "Reference") {
				walk(nxt)
			}
		}
		walk(objs[root].ID)
		got := ix.Reachable(objs[root].ID)
		if !got.Equal(want) {
			t.Errorf("root %d: closure %v != BFS %v", root, got, want)
		}
	}
}

func TestReachIncludesSelf(t *testing.T) {
	st := store.New(1)
	o := st.NewObject()
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	ix := BuildReach(st, "Reference")
	if !ix.Reachable(o.ID).Has(o.ID) {
		t.Error("closure must include the object itself")
	}
	if ix.PtrKey() != "Reference" {
		t.Errorf("PtrKey = %q", ix.PtrKey())
	}
}

func TestReachableWith(t *testing.T) {
	st, objs := buildDocs(t, 30, 4)
	kw := BuildKeyword(st)
	rx := BuildReach(st, "Reference")
	got := ReachableWith(rx, kw, objs[0].ID, "keyword", "k1")
	// Independent: reachable AND keyword k1.
	reach := rx.Reachable(objs[0].ID)
	want := make(object.IDSet)
	for i, o := range objs {
		if i%5 == 1 && reach.Has(o.ID) {
			want.Add(o.ID)
		}
	}
	if !got.Equal(want) {
		t.Errorf("ReachableWith = %v, want %v", got, want)
	}
}

func TestReachHandlesCycles(t *testing.T) {
	st := store.New(1)
	a := st.NewObject()
	b := st.NewObject()
	a.Add("Pointer", object.String("Reference"), object.Pointer(b.ID))
	b.Add("Pointer", object.String("Reference"), object.Pointer(a.ID))
	for _, o := range []*object.Object{a, b} {
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	ix := BuildReach(st, "Reference")
	if got := ix.Reachable(a.ID); len(got) != 2 {
		t.Errorf("cycle closure = %v", got)
	}
}
