package store

import (
	"bytes"
	"sync"
	"testing"

	"hyperfile/internal/object"
)

// AllocIDs and BulkLoad are the scenario generator's loading path: ids born
// at the owning site in one lock acquisition, objects installed in batches
// with the same spill semantics as Put.

func TestAllocIDsFreshAndDisjointFromNewObject(t *testing.T) {
	s := New(5)
	a := s.NewObject()
	ids := s.AllocIDs(100)
	if len(ids) != 100 {
		t.Fatalf("allocated %d ids", len(ids))
	}
	seen := map[object.ID]bool{a.ID: true}
	for _, id := range ids {
		if id.Birth != 5 {
			t.Fatalf("id %v born at site %v, want 5", id, id.Birth)
		}
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
	if b := s.NewObject(); seen[b.ID] {
		t.Fatalf("NewObject after AllocIDs reused id %v", b.ID)
	}
}

func TestAllocIDsConcurrent(t *testing.T) {
	s := New(1)
	const gor, per = 8, 200
	var wg sync.WaitGroup
	out := make([][]object.ID, gor)
	for g := 0; g < gor; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = s.AllocIDs(per)
		}()
	}
	wg.Wait()
	seen := map[object.ID]bool{}
	for _, batch := range out {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate id %v across concurrent batches", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != gor*per {
		t.Fatalf("allocated %d unique ids, want %d", len(seen), gor*per)
	}
}

func TestBulkLoadStoresRetrievableObjects(t *testing.T) {
	s := New(2)
	ids := s.AllocIDs(50)
	objs := make([]*object.Object, len(ids))
	for i, id := range ids {
		objs[i] = object.New(id).Add("Sel", object.Int(int64(i%10)), object.Value{})
	}
	if err := s.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
	for i, id := range ids {
		o, ok := s.Get(id)
		if !ok {
			t.Fatalf("object %d missing after bulk load", i)
		}
		if len(o.Tuples) != 1 || o.Tuples[0].Key.Int != int64(i%10) {
			t.Fatalf("object %d tuples corrupted: %+v", i, o.Tuples)
		}
	}
}

func TestBulkLoadSpillsLargeData(t *testing.T) {
	s := New(1, WithLargeThreshold(8))
	id := s.AllocIDs(1)[0]
	big := bytes.Repeat([]byte("x"), 64)
	o := object.New(id).Add("String", object.String("Blob"), object.Bytes(big))
	if err := s.BulkLoad([]*object.Object{o}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(id)
	if len(got.Tuples[0].Data.Bytes) != 0 {
		t.Error("large data not stubbed in the searchable representation")
	}
	v, err := s.FetchData(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes, big) {
		t.Error("spilled data does not round-trip through FetchData")
	}
}

func TestBulkLoadRejectsNilID(t *testing.T) {
	s := New(1)
	o := object.New(object.NilID)
	if err := s.BulkLoad([]*object.Object{o}); err == nil {
		t.Fatal("BulkLoad accepted a nil id")
	}
}

func TestBulkLoadReplacesExistingObject(t *testing.T) {
	s := New(1, WithLargeThreshold(8))
	id := s.AllocIDs(1)[0]
	big := bytes.Repeat([]byte("y"), 32)
	first := object.New(id).Add("String", object.String("Blob"), object.Bytes(big))
	if err := s.BulkLoad([]*object.Object{first}); err != nil {
		t.Fatal(err)
	}
	second := object.New(id).Add("Sel", object.Int(7), object.Value{})
	if err := s.BulkLoad([]*object.Object{second}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replacement, want 1", s.Len())
	}
	got, _ := s.Get(id)
	if len(got.Tuples) != 1 || got.Tuples[0].Key.Int != 7 {
		t.Fatalf("replacement not visible: %+v", got.Tuples)
	}
	// The first version's spilled blob must be gone with it: fetching tuple 0
	// now yields the replacement's (empty) data, not the old bytes.
	v, err := s.FetchData(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Bytes) != 0 {
		t.Errorf("stale blob survived the replacement: %q", v.Bytes)
	}
}
