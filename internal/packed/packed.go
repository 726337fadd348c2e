// Package packed provides the open-addressing set of (object id, filter
// index) pairs that stores the engine mark table and the sender-side
// sent-cache: one flat slot array in place of a nested
// map[object.ID]map[int]struct{}, no per-object inner maps, no per-entry
// boxing, and a pool (Get/Put) that reuses the backing storage across
// queries.
//
// A slot holds one mark word: the members of one object in one block of 64
// filter indices. Its key packs hi = Birth<<32 | idx>>6 and lo = Seq, and a
// member is bit idx&63 of the slot's mask. A query of at most 64 filters
// therefore spends one slot per object it reaches. The set remembers the
// slot its last lookup ended on, so the run of marks one object step makes
// costs one hash probe: the first lookup probes, the rest hit the
// remembered slot.
package packed

import (
	"sync"

	"hyperfile/internal/object"
)

// slot is one mark word. A slot is occupied exactly when its mask is
// non-zero: a slot is only ever filled by setting a bit.
type slot struct {
	hi, lo uint64
	mask   uint64
}

// Set is an open-addressing set of (object id, filter index) pairs with
// linear probing. The zero value is ready to use. Not safe for concurrent
// use, Contains included (it writes the remembered slot): it is owned by one
// query context.
type Set struct {
	slots []slot
	// n counts members, (object, index) pairs; used counts occupied slots.
	n, used int
	// last is the slot the latest lookup, of block (lastHi, lastLo), ended
	// on: the block's own slot, or the empty slot it would be inserted into.
	// Only that block's insert fills the slot before the next lookup, and
	// grow and Reset forget it, so the slot stays the right answer for the
	// block until a lookup of another block replaces it.
	last           int
	lastHi, lastLo uint64
	remembered     bool
}

// key returns the block key of (id, idx) and idx's bit in the block's mask.
// Filter indices are non-negative ints; uint32(idx) keeps indices up to
// 2^32-1 from aliasing across objects.
func key(id object.ID, idx int) (hi, lo, bit uint64) {
	u := uint32(idx)
	return uint64(id.Birth)<<32 | uint64(u>>6), id.Seq, 1 << (u & 63)
}

// hash mixes both words with a splitmix64-style finalizer; linear probing
// needs good low-bit dispersion, which the raw Birth<<32|block packing lacks.
func hash(hi, lo uint64) uint64 {
	x := hi ^ (lo * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lookup returns the slot of block (hi, lo), or the empty slot it would be
// inserted into. The table must have at least one empty slot.
func (s *Set) lookup(hi, lo uint64) *slot {
	if s.remembered && s.lastHi == hi && s.lastLo == lo {
		return &s.slots[s.last]
	}
	mask := uint64(len(s.slots) - 1)
	for i := hash(hi, lo) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.mask == 0 || sl.hi == hi && sl.lo == lo {
			s.last, s.lastHi, s.lastLo, s.remembered = int(i), hi, lo, true
			return sl
		}
	}
}

// Len returns the number of members: (object, index) pairs, not slots.
func (s *Set) Len() int { return s.n }

// Contains reports whether (id, idx) is a member.
func (s *Set) Contains(id object.ID, idx int) bool {
	if s.used == 0 {
		return false
	}
	hi, lo, bit := key(id, idx)
	return s.lookup(hi, lo).mask&bit != 0
}

// TestAndSet inserts (id, idx) and reports whether it was already a member,
// matching the Marks.TestAndSet contract.
func (s *Set) TestAndSet(id object.ID, idx int) bool {
	if len(s.slots) == 0 || s.used*4 >= len(s.slots)*3 {
		s.grow(max(len(s.slots)*2, 16))
	}
	hi, lo, bit := key(id, idx)
	sl := s.lookup(hi, lo)
	if sl.mask&bit != 0 {
		return true
	}
	if sl.mask == 0 {
		sl.hi, sl.lo = hi, lo
		s.used++
	}
	sl.mask |= bit
	s.n++
	return false
}

// Reset empties the set, keeping the backing array for reuse.
func (s *Set) Reset() {
	clear(s.slots)
	s.n, s.used, s.remembered = 0, 0, false
}

// maxPooledSlots bounds the tables the pool keeps. Reset is O(capacity) and
// the pool hands any table to any query, so a table grown by one huge
// closure must not be inherited (and re-cleared) by every small query after
// it. 1<<15 slots (768 KiB) hold one mark word for each of the 2700 objects
// of a closure over the paper's largest dataset with room to spare.
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
	s.remembered = false
	mask := uint64(size - 1)
	for i := range old {
		sl := &old[i]
		if sl.mask == 0 {
			continue
		}
		for j := hash(sl.hi, sl.lo) & mask; ; j = (j + 1) & mask {
			if s.slots[j].mask == 0 {
				s.slots[j] = *sl
				break
			}
		}
	}
}
