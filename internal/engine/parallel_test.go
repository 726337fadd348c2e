package engine

import (
	"math/rand"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// randomGraphStore builds a store with a random pointer graph for parallel
// tests.
func randomGraphStore(t testing.TB, n int, seed int64) (*store.Store, []object.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := store.New(1)
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = s.NewObject()
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
		if rng.Intn(3) == 0 {
			o.Add("keyword", object.Keyword("hot"), object.Value{})
		}
		o.Add("String", object.String("Title"), object.String("doc"))
		for j := 0; j < 2; j++ {
			o.Add("Pointer", object.String("Reference"), object.Pointer(objs[rng.Intn(n)].ID))
		}
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return s, ids
}

const parClosure = `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`

// TestParallelMatchesSerial: the multiprocessor mode must produce exactly
// the serial algorithm's result set, for every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, ids := randomGraphStore(t, 80, seed)
		c := query.MustCompile(parClosure)
		serial := New(c, s)
		serial.AddInitial(ids[0])
		serial.Run()
		want := serial.Results()
		for _, workers := range []int{1, 2, 4, 8} {
			got := RunParallel(c, s, workers, []object.ID{ids[0]})
			if !got.Results.Equal(want) {
				t.Errorf("seed %d workers %d: parallel %v != serial %v",
					seed, workers, got.Results, want)
			}
		}
	}
}

func TestParallelFetchesComplete(t *testing.T) {
	s, ids := randomGraphStore(t, 50, 3)
	c := query.MustCompile(`S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) (String, "Title", ->title) -> T`)
	serial := New(c, s)
	serial.AddInitial(ids[0])
	serial.Run()
	ids0, wantFetches := serial.TakeResults()
	wantResults := object.NewIDSet(ids0...)

	got := RunParallel(c, s, 4, []object.ID{ids[0]})
	if !got.Results.Equal(wantResults) {
		t.Fatalf("results differ")
	}
	// Every passing object fetched its title exactly once (duplicates are
	// possible in principle under racing processors but the mark table
	// suppresses reprocessing, so counts match the serial run).
	if len(got.Fetches) != len(wantFetches) {
		t.Errorf("fetches = %d, want %d", len(got.Fetches), len(wantFetches))
	}
	seen := make(object.IDSet)
	for _, f := range got.Fetches {
		if f.Var != "title" {
			t.Errorf("fetch var %q", f.Var)
		}
		seen.Add(f.From)
	}
	if !seen.Equal(wantResults) {
		t.Errorf("fetch sources %v != results %v", seen, wantResults)
	}
}

func TestParallelEmptyInitial(t *testing.T) {
	s, _ := randomGraphStore(t, 10, 1)
	c := query.MustCompile(parClosure)
	got := RunParallel(c, s, 4, nil)
	if len(got.Results) != 0 {
		t.Errorf("results = %v", got.Results)
	}
}

func TestParallelSingleWorkerEqualsSerialStats(t *testing.T) {
	s, ids := randomGraphStore(t, 40, 7)
	c := query.MustCompile(parClosure)
	serial := New(c, s)
	serial.AddInitial(ids[0])
	st := serial.Run()
	got := RunParallel(c, s, 1, []object.ID{ids[0]})
	if got.Stats.Processed != st.Processed || got.Stats.Results != st.Results {
		t.Errorf("stats differ: parallel %+v serial %+v", got.Stats, st)
	}
}

func TestParallelWorkersFloor(t *testing.T) {
	s, ids := randomGraphStore(t, 10, 2)
	c := query.MustCompile(parClosure)
	got := RunParallel(c, s, 0, []object.ID{ids[0]})
	if got.Workers != 1 {
		t.Errorf("workers = %d, want clamped to 1", got.Workers)
	}
}

func TestSharedMarks(t *testing.T) {
	m := NewSharedMarks()
	id := object.ID{Birth: 1, Seq: 1}
	if m.Test(id, 0) {
		t.Error("fresh mark set")
	}
	if m.TestAndSet(id, 0) {
		t.Error("first TestAndSet reported already-set")
	}
	if !m.TestAndSet(id, 0) || !m.Test(id, 0) {
		t.Error("second TestAndSet missed the mark")
	}
	if m.Test(id, 1) {
		t.Error("different index marked")
	}
}

func BenchmarkParallelClosure4(b *testing.B) {
	s, ids := randomGraphStore(b, 270, 1)
	c := query.MustCompile(parClosure)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunParallel(c, s, 4, []object.ID{ids[0]})
	}
}
