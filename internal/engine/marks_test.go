package engine

import (
	"math/rand"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// mapMarks is the paper-shaped mark table — per object, the set of filter
// indices at which it has been processed — kept as the differential oracle
// for packedMarks (installed on whole engines through WithMarks).
type mapMarks map[object.ID]map[int]struct{}

func (m mapMarks) Test(id object.ID, idx int) bool {
	_, hit := m[id][idx]
	return hit
}

func (m mapMarks) TestAndSet(id object.ID, idx int) bool {
	set, ok := m[id]
	if !ok {
		set = make(map[int]struct{})
		m[id] = set
	}
	if _, hit := set[idx]; hit {
		return true
	}
	set[idx] = struct{}{}
	return false
}

func (m mapMarks) count() int {
	n := 0
	for _, set := range m {
		n += len(set)
	}
	return n
}

// TestPackedMarksDifferential drives packedMarks and mapMarks with identical
// randomized op streams — TestAndSet, Test, and full release — over a
// collision-heavy id space (few Birth sites, clustered Seq values) and
// filter indices from all of [0, query.MaxFilters), weighted to the edges of
// the first 64-filter blocks, and asserts identical observable behavior on
// every op. Half the ops go to two objects interleaved, so one object's run
// of marks is broken by the other's, as a BFS working set breaks it.
func TestPackedMarksDifferential(t *testing.T) {
	for _, seed := range []int64{3, 19, 91} {
		rng := rand.New(rand.NewSource(seed))
		pm := packedMarks{s: packed.Get()}
		mm := make(mapMarks)
		pair := [2]object.ID{{Birth: 1, Seq: 64}, {Birth: 1, Seq: 128}}
		genPair := func() (object.ID, int) {
			idx := rng.Intn(query.MaxFilters)
			if rng.Intn(2) == 0 {
				idx = []int{0, 63, 64, 127, 128}[rng.Intn(5)]
			}
			if rng.Intn(2) == 0 {
				return pair[rng.Intn(2)], idx
			}
			id := object.ID{
				Birth: object.SiteID(rng.Intn(3) + 1),
				Seq:   uint64(rng.Intn(6)) * uint64(1<<uint(rng.Intn(10))),
			}
			return id, idx
		}
		for op := 0; op < 20000; op++ {
			id, idx := genPair()
			switch rng.Intn(2) {
			case 0:
				if got, want := pm.TestAndSet(id, idx), mm.TestAndSet(id, idx); got != want {
					t.Fatalf("seed %d op %d: TestAndSet(%v,%d) = %v, want %v", seed, op, id, idx, got, want)
				}
			case 1:
				if got, want := pm.Test(id, idx), mm.Test(id, idx); got != want {
					t.Fatalf("seed %d op %d: Test(%v,%d) = %v, want %v", seed, op, id, idx, got, want)
				}
			}
			if pm.s.Len() != mm.count() {
				t.Fatalf("seed %d op %d: %d marks, oracle holds %d", seed, op, pm.s.Len(), mm.count())
			}
		}
		// Release: both tables drop every mark, and the pooled table comes
		// back empty.
		packed.Put(pm.s)
		pm.s = packed.Get()
		mm = make(mapMarks)
		id, idx := genPair()
		if pm.Test(id, idx) || mm.Test(id, idx) || pm.s.Len() != 0 {
			t.Fatalf("seed %d: mark survived release", seed)
		}
	}
}

// TestEngineMatchesMapMarksOracle: the default engine (packed marks, pooled
// queue, scratch env) must return exactly the answer, statistics and mark
// count of an engine running on the map-table oracle, on random graphs, in
// both queue disciplines, for a closure and for a bounded body unrolled past
// 64 filters, including after scratch release and reuse of the pooled
// storage by a following engine.
func TestEngineMatchesMapMarksOracle(t *testing.T) {
	bodies := []*query.Compiled{
		query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`),
		query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]*25 (keyword, "hot", ?) -> T`),
	}
	if n := bodies[1].Len(); n <= 64 {
		t.Fatalf("the bounded body compiles to %d filters, want a second mark block", n)
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := store.New(1)
		n := 5 + rng.Intn(50)
		objs := make([]*object.Object, n)
		for i := range objs {
			objs[i] = s.NewObject()
		}
		for _, o := range objs {
			if rng.Intn(3) == 0 {
				o.Add("keyword", object.Keyword("hot"), object.Value{})
			}
			for j := 0; j < 1+rng.Intn(3); j++ {
				o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(n)].ID))
			}
			if err := s.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range bodies {
			for _, order := range []Order{BFS, DFS} {
				oracle := make(mapMarks)
				base := New(c, s, WithOrder(order), WithMarks(oracle))
				eng := New(c, s, WithOrder(order))
				base.AddInitial(objs[0].ID)
				eng.AddInitial(objs[0].ID)
				base.Run()
				eng.Run()
				if !base.Results().Equal(eng.Results()) {
					t.Fatalf("seed %d %d filters order %v: answer differs from oracle: %v vs %v",
						seed, c.Len(), order, eng.Results(), base.Results())
				}
				bs, es := base.Stats(), eng.Stats()
				if bs != es {
					t.Fatalf("seed %d %d filters order %v: stats differ from oracle: %+v vs %+v", seed, c.Len(), order, es, bs)
				}
				if got, want := eng.MarkCount(), oracle.count(); got != want {
					t.Fatalf("seed %d %d filters order %v: %d marks, oracle holds %d", seed, c.Len(), order, got, want)
				}
				eng.ReleaseScratch()
				if eng.MarkCount() != 0 {
					t.Fatalf("seed %d: %d marks survived ReleaseScratch", seed, eng.MarkCount())
				}
			}
		}
	}
}

// TestReleaseScratchCapsPooledStorage: storage grown past the pool caps by
// one large query is dropped on release, not handed to the next query (whose
// release would pay to clear it), and the released engine stays usable — a
// straggler Enqueue and its marks land in small fresh storage.
func TestReleaseScratchCapsPooledStorage(t *testing.T) {
	s := store.New(1)
	ids := buildChain(t, s, 3, "hot")
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`)
	e := New(c, s)
	for i := 0; i <= maxPooledWork; i++ {
		e.push(NewItem(object.ID{Birth: 9, Seq: uint64(i)}))
	}
	if cap(e.work) <= maxPooledWork {
		t.Fatalf("working set cap %d did not outgrow the pool cap %d", cap(e.work), maxPooledWork)
	}
	big := e.marks.(packedMarks).s
	// Past packed.maxPooledSlots (1<<15) members the table cannot fit a
	// poolable slot array at any load factor.
	for i := 0; big.Len() <= 1<<15; i++ {
		e.marks.TestAndSet(object.ID{Birth: 9, Seq: uint64(i)}, i%4)
	}
	e.ReleaseScratch()
	for i := 0; i < 8; i++ {
		w := scratchPool.Get().(*scratch).work
		if cap(w) > maxPooledWork {
			t.Fatalf("pool handed out a %d-item queue, cap is %d", cap(w), maxPooledWork)
		}
		if set := packed.Get(); set == big {
			t.Fatal("pool handed out the oversized mark table")
		}
	}
	if e.MarkCount() != 0 || e.HasWork() {
		t.Fatalf("release left %d marks, work=%v", e.MarkCount(), e.HasWork())
	}

	e.Enqueue(NewItem(ids[0]))
	e.Run()
	if got := e.Results(); len(got) != len(ids) {
		t.Fatalf("straggler run after release found %d results, want %d", len(got), len(ids))
	}
	if e.MarkCount() == 0 {
		t.Fatal("straggler run after release marked nothing")
	}
	e.ReleaseScratch() // a retained context releases twice; must stay safe
}

// TestScratchEnvFetchesAndBindings: one scratch environment serves every
// Step, cleared in between — bindings from one object must never leak into
// the next object's match. On a 6-ring each object binds one pointer and
// fetches its own name, so a leaked ?X would show up as extra dereferences
// and a leaked fetch as a name credited to the wrong object.
func TestScratchEnvFetchesAndBindings(t *testing.T) {
	s := store.New(1)
	ids := buildChain(t, s, 6, "hot")
	want := map[object.ID]string{}
	for i, id := range ids {
		o, _ := s.Get(id)
		want[id] = string(rune('a' + i))
		o.Add("name", object.String(want[id]), object.Value{})
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, ?K, ?) (name, ->N, ?) -> T`)
	e := New(c, s)
	e.AddInitial(ids[0])
	st := e.Run()
	if st.LocalDerefs != len(ids) || st.Results != len(ids) {
		t.Fatalf("stats %+v: want exactly %d derefs and results", st, len(ids))
	}
	_, fetches := e.TakeResults()
	if len(fetches) != len(ids) {
		t.Fatalf("%d fetches, want %d: %+v", len(fetches), len(ids), fetches)
	}
	for _, f := range fetches {
		if f.Var != "N" || f.Val.Str != want[f.From] {
			t.Fatalf("fetch %+v, want N=%q from that object", f, want[f.From])
		}
		delete(want, f.From)
	}
}
