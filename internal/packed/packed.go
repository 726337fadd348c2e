// Package packed provides an open-addressing hash set over 128-bit keys
// packed into two uint64 words. It is the storage of the engine mark table
// and the sender-side sent-cache: one flat slot array in place of a nested
// map[object.ID]map[int]struct{}, no per-object inner maps, no per-entry
// boxing, and a pool (Get/Put) that reuses the backing storage across
// queries.
//
// The packing convention for the tree's (object, filter-index) pairs is
// IDKey: hi = Birth<<32 | uint32(idx), lo = Seq. Birth is a SiteID and never
// zero for a stored object, so hi==0 cannot collide with a live key, but the
// table does not rely on that: occupancy is tracked per slot, and any
// (hi, lo) value — including (0, 0) — is a valid member.
package packed

import (
	"sync"

	"hyperfile/internal/object"
)

// IDKey packs an (object id, filter index) pair into a 128-bit key.
// Filter indices are small non-negative ints; the low 32 bits of hi hold
// uint32(idx) so indices up to 2^32-1 cannot alias across objects.
func IDKey(id object.ID, idx int) (hi, lo uint64) {
	return uint64(id.Birth)<<32 | uint64(uint32(idx)), id.Seq
}

type slot struct {
	hi, lo uint64
	used   bool
}

// Set is an open-addressing set with linear probing. The zero value is
// ready to use. Not safe for concurrent use — it is owned by one query
// context.
type Set struct {
	slots []slot
	n     int
}

// hash mixes both words with a splitmix64-style finalizer; linear probing
// needs good low-bit dispersion, which the raw Birth<<32|idx packing lacks.
func hash(hi, lo uint64) uint64 {
	x := hi ^ (lo * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of members.
func (s *Set) Len() int { return s.n }

// Contains reports whether (hi, lo) is a member.
func (s *Set) Contains(hi, lo uint64) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(hi, lo) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if !sl.used {
			return false
		}
		if sl.hi == hi && sl.lo == lo {
			return true
		}
	}
}

// TestAndSet inserts (hi, lo) and reports whether it was already a member,
// matching the Marks.TestAndSet contract.
func (s *Set) TestAndSet(hi, lo uint64) bool {
	if len(s.slots) == 0 || s.n*4 >= len(s.slots)*3 {
		s.grow(max(len(s.slots)*2, 16))
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(hi, lo) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if !sl.used {
			sl.hi, sl.lo, sl.used = hi, lo, true
			s.n++
			return false
		}
		if sl.hi == hi && sl.lo == lo {
			return true
		}
	}
}

// Reset empties the set, keeping the backing array for reuse.
func (s *Set) Reset() {
	clear(s.slots)
	s.n = 0
}

// maxPooledSlots bounds the tables the pool keeps. Reset is O(capacity) and
// the pool hands any table to any query, so a table grown by one huge
// closure must not be inherited (and re-cleared) by every small query after
// it. 1<<15 slots (768 KiB) holds the ~11k marks of a closure over the
// paper's largest dataset (2700 objects) with room to spare.
const maxPooledSlots = 1 << 15

var setPool = sync.Pool{New: func() any { return new(Set) }}

// Get returns an empty set from the pool.
func Get() *Set { return setPool.Get().(*Set) }

// Put empties s and returns it to the pool; the caller must not touch s
// afterwards. A table grown past maxPooledSlots is left to the garbage
// collector instead.
func Put(s *Set) {
	if len(s.slots) > maxPooledSlots {
		return
	}
	s.Reset()
	setPool.Put(s)
}

func (s *Set) grow(size int) {
	old := s.slots
	s.slots = make([]slot, size)
	mask := uint64(size - 1)
	for i := range old {
		sl := &old[i]
		if !sl.used {
			continue
		}
		for j := hash(sl.hi, sl.lo) & mask; ; j = (j + 1) & mask {
			if !s.slots[j].used {
				s.slots[j] = *sl
				break
			}
		}
	}
}
