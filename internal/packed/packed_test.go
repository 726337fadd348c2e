package packed

import (
	"math/rand"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
)

// pair is the oracle's key: one (object, filter index) member.
type pair struct {
	id  object.ID
	idx int
}

// genIndex draws a filter index from all of [0, query.MaxFilters), with
// extra weight on the indices either side of the first two block
// boundaries.
func genIndex(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return []int{0, 1, 63, 64, 127, 128}[rng.Intn(6)]
	}
	return rng.Intn(query.MaxFilters)
}

// TestDifferentialAgainstMap drives the set and a reference map with
// identical randomized op streams and asserts identical observable behavior
// at every step. The id generator is deliberately collision-heavy: a handful
// of Birth sites and Seq values clustered around multiples of likely table
// sizes, so probe chains actually wrap. Every other op goes to one of two
// objects that share a mark word, interleaved so the remembered slot is
// checked against the other object's; Reset and a trip through the pool come
// in mid-stream, so the memory is also checked across grow, Reset and reuse.
func TestDifferentialAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1991} {
		rng := rand.New(rand.NewSource(seed))
		s := Get()
		ref := map[pair]bool{}
		shared := [2]object.ID{{Birth: 2, Seq: 512}, {Birth: 2, Seq: 1024}}
		gen := func() pair {
			if rng.Intn(2) == 0 {
				return pair{shared[rng.Intn(2)], genIndex(rng)}
			}
			id := object.ID{
				Birth: object.SiteID(rng.Intn(3) + 1),
				Seq:   uint64(rng.Intn(8)) * uint64(1<<uint(rng.Intn(12))),
			}
			return pair{id, genIndex(rng)}
		}
		for op := 0; op < 40000; op++ {
			p := gen()
			switch r := rng.Intn(200); {
			case r == 0: // Reset
				s.Reset()
				clear(ref)
			case r == 1: // release to the pool and draw again
				Put(s)
				s = Get()
				clear(ref)
			case r < 100:
				want := ref[p]
				ref[p] = true
				if got := s.TestAndSet(p.id, p.idx); got != want {
					t.Fatalf("seed %d op %d: TestAndSet(%v,%d) = %v, want %v", seed, op, p.id, p.idx, got, want)
				}
			case r < 190:
				if got, want := s.Contains(p.id, p.idx), ref[p]; got != want {
					t.Fatalf("seed %d op %d: Contains(%v,%d) = %v, want %v", seed, op, p.id, p.idx, got, want)
				}
			default:
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
		for p := range ref {
			if s.Contains(p.id, p.idx) {
				t.Fatalf("seed %d: member %v survived Reset", seed, p)
			}
		}
		if s.TestAndSet(shared[0], 64) {
			t.Fatal("TestAndSet on reset set reported already-present")
		}
		Put(s)
	}
}

// TestZeroKeyAndAliasing: the zero id at index 0, whose mark word has an
// all-zero key, is a legal member (occupancy is the mask, not the key), and
// pairs differing only in Seq, only in Birth, or only in filter index — in
// one mark word or in the same bit of two — never alias.
func TestZeroKeyAndAliasing(t *testing.T) {
	s := new(Set)
	if s.TestAndSet(object.ID{}, 0) {
		t.Fatal("zero key reported present in empty set")
	}
	if !s.Contains(object.ID{}, 0) {
		t.Fatal("zero key not stored")
	}
	var pairs []pair
	for _, id := range []object.ID{{Birth: 5, Seq: 77}, {Birth: 5, Seq: 78}, {Birth: 6, Seq: 77}} {
		for _, idx := range []int{0, 1, 63, 64, 65, 128, query.MaxFilters - 1} {
			pairs = append(pairs, pair{id, idx})
		}
	}
	for i, p := range pairs {
		if s.Contains(p.id, p.idx) {
			t.Fatalf("pair %v reported present before insertion", p)
		}
		if s.TestAndSet(p.id, p.idx) {
			t.Fatalf("fresh pair %v reported present", p)
		}
		for _, q := range pairs[i+1:] {
			if s.Contains(q.id, q.idx) {
				t.Fatalf("inserting %v made %v present", p, q)
			}
		}
	}
	if s.Len() != len(pairs)+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pairs)+1)
	}
}

// TestPoolDropsOversizedTables: Put recycles a table emptied, but a table
// grown past maxPooledSlots is dropped — Reset is O(capacity), so a pooled
// giant would tax every small query that drew it.
func TestPoolDropsOversizedTables(t *testing.T) {
	small := Get()
	small.TestAndSet(object.ID{Birth: 1, Seq: 2}, 0)
	Put(small)

	big := Get()
	for i := uint64(0); len(big.slots) <= maxPooledSlots; i++ {
		big.TestAndSet(object.ID{Birth: 1, Seq: i}, 0)
	}
	Put(big)

	for i := 0; i < 8; i++ {
		s := Get()
		if s == big || len(s.slots) > maxPooledSlots {
			t.Fatalf("pool handed out a %d-slot table, cap is %d", len(s.slots), maxPooledSlots)
		}
		if s.Len() != 0 || s.Contains(object.ID{Birth: 1, Seq: 2}, 0) {
			t.Fatal("pool handed out a table that was not emptied")
		}
	}
}

// FuzzSet decodes its input into an op stream over a few ids and indices up
// to query.MaxFilters and checks the set against a map oracle after every
// op. Each op takes three bytes: the op, the object, and the index (the
// object byte's top bits widen the index to the whole filter range).
func FuzzSet(f *testing.F) {
	// TestAndSet of object 0 at 63 and 64, then Contains of both and Len.
	f.Add([]byte{0, 0, 63, 0, 0, 64, 1, 0, 63, 1, 0, 64, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := new(Set)
		ref := map[pair]bool{}
		for len(ops) >= 3 {
			op, obj, lo := ops[0], ops[1], ops[2]
			ops = ops[3:]
			p := pair{
				id:  object.ID{Birth: object.SiteID(obj & 1), Seq: uint64(obj>>1&3) << 10},
				idx: (int(obj>>4)<<8 | int(lo)) % query.MaxFilters,
			}
			switch op % 4 {
			case 0:
				want := ref[p]
				ref[p] = true
				if got := s.TestAndSet(p.id, p.idx); got != want {
					t.Fatalf("TestAndSet(%v,%d) = %v, want %v", p.id, p.idx, got, want)
				}
			case 1:
				if got, want := s.Contains(p.id, p.idx), ref[p]; got != want {
					t.Fatalf("Contains(%v,%d) = %v, want %v", p.id, p.idx, got, want)
				}
			case 2:
				s.Reset()
				clear(ref)
			case 3:
				if got, want := s.Len(), len(ref); got != want {
					t.Fatalf("Len = %d, want %d", got, want)
				}
			}
		}
	})
}
