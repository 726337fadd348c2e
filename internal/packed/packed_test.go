package packed

import (
	"math/rand"
	"testing"

	"hyperfile/internal/object"
)

// TestDifferentialAgainstMap drives the open-addressing set and a reference
// map with identical randomized op streams and asserts identical observable
// behavior at every step. The id generator is deliberately collision-heavy:
// a handful of Birth sites, Seq values clustered around multiples of likely
// table sizes, and small filter indices, so probe chains actually wrap.
func TestDifferentialAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1991} {
		rng := rand.New(rand.NewSource(seed))
		s := new(Set)
		ref := map[[2]uint64]bool{}
		genKey := func() (uint64, uint64) {
			id := object.ID{
				Birth: object.SiteID(rng.Intn(3) + 1),
				Seq:   uint64(rng.Intn(8)) * uint64(1<<uint(rng.Intn(12))),
			}
			return IDKey(id, rng.Intn(4))
		}
		for op := 0; op < 20000; op++ {
			hi, lo := genKey()
			switch rng.Intn(3) {
			case 0: // TestAndSet
				want := ref[[2]uint64{hi, lo}]
				ref[[2]uint64{hi, lo}] = true
				if got := s.TestAndSet(hi, lo); got != want {
					t.Fatalf("seed %d op %d: TestAndSet(%x,%x) = %v, want %v", seed, op, hi, lo, got, want)
				}
			case 1: // Contains
				if got, want := s.Contains(hi, lo), ref[[2]uint64{hi, lo}]; got != want {
					t.Fatalf("seed %d op %d: Contains(%x,%x) = %v, want %v", seed, op, hi, lo, got, want)
				}
			case 2: // Len
				if got, want := s.Len(), len(ref); got != want {
					t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, got, want)
				}
			}
		}
		// Release/reuse: Reset must drop every member and leave the set fully
		// usable, exactly like allocating a fresh map.
		s.Reset()
		if s.Len() != 0 {
			t.Fatalf("seed %d: Len after Reset = %d", seed, s.Len())
		}
		for k := range ref {
			if s.Contains(k[0], k[1]) {
				t.Fatalf("seed %d: member %x survived Reset", seed, k)
			}
		}
		if s.TestAndSet(1, 2) {
			t.Fatal("TestAndSet on reset set reported already-present")
		}
	}
}

// TestZeroKeyAndAliasing: the all-zero key is a legal member (occupancy is
// tracked explicitly, not via a sentinel), and ids differing only in Seq,
// only in Birth, or only in filter index never alias.
func TestZeroKeyAndAliasing(t *testing.T) {
	s := new(Set)
	if s.TestAndSet(0, 0) {
		t.Fatal("zero key reported present in empty set")
	}
	if !s.Contains(0, 0) {
		t.Fatal("zero key not stored")
	}
	base := object.ID{Birth: 5, Seq: 77}
	keys := [][2]uint64{}
	for _, id := range []object.ID{base, {Birth: 5, Seq: 78}, {Birth: 6, Seq: 77}} {
		for idx := 0; idx < 3; idx++ {
			hi, lo := IDKey(id, idx)
			keys = append(keys, [2]uint64{hi, lo})
		}
	}
	for i, k := range keys {
		for j, k2 := range keys {
			if i != j && k == k2 {
				t.Fatalf("keys %d and %d alias: %x", i, j, k)
			}
		}
	}
	for _, k := range keys {
		if s.TestAndSet(k[0], k[1]) {
			t.Fatalf("fresh key %x reported present", k)
		}
	}
	if s.Len() != len(keys)+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys)+1)
	}
}

// TestPoolDropsOversizedTables: Put recycles a table emptied, but a table
// grown past maxPooledSlots is dropped — Reset is O(capacity), so a pooled
// giant would tax every small query that drew it.
func TestPoolDropsOversizedTables(t *testing.T) {
	small := Get()
	small.TestAndSet(1, 2)
	Put(small)

	big := Get()
	for i := uint64(0); len(big.slots) <= maxPooledSlots; i++ {
		big.TestAndSet(i, i)
	}
	Put(big)

	for i := 0; i < 8; i++ {
		s := Get()
		if s == big || len(s.slots) > maxPooledSlots {
			t.Fatalf("pool handed out a %d-slot table, cap is %d", len(s.slots), maxPooledSlots)
		}
		if s.Len() != 0 || s.Contains(1, 2) {
			t.Fatal("pool handed out a table that was not emptied")
		}
	}
}
