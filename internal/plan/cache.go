package plan

import (
	"hyperfile/internal/query"
)

// Cache is a site-level plan cache keyed by the query body's fingerprint.
// Dereference messages carry the sender's body hash, so a receiving site can
// recognize a query body it has already compiled — across query contexts —
// and skip lexing, parsing, and planning entirely.
//
// Entries are bucketed by the fingerprint's 8-byte prefix for cheap lookup,
// but a hit is only declared after the full 32-byte fingerprint matches AND
// the body text itself compares equal: the hash travels over the wire, and a
// plan compiled from the wrong body would silently corrupt results, so the
// cache never trusts a truncated or even a full hash alone when the body is
// in hand.
//
// The cache is a plain LRU bounded to cap entries. A built plan is immutable
// and every query context holds its own *Plan, so evicting an entry a live
// context still executes changes no answer: a later context with that body
// compiles it again. A Cache is owned by one site and, like the site itself,
// is not safe for concurrent use.
type Cache struct {
	cap     int
	buckets map[uint64][]*cacheEntry
	// lru orders entries from least to most recently used.
	lru []*cacheEntry
}

type cacheEntry struct {
	fp   query.Fingerprint
	body string
	plan *Plan
}

// NewCache returns a plan cache bounded to at most cap entries. cap must be
// positive.
func NewCache(cap int) *Cache {
	if cap < 1 {
		cap = 1
	}
	return &Cache{cap: cap, buckets: make(map[uint64][]*cacheEntry)}
}

// find returns the entry for (fp, body), or nil.
func (c *Cache) find(fp query.Fingerprint, body string) *cacheEntry {
	for _, e := range c.buckets[fp.Prefix()] {
		if e.fp == fp && e.body == body {
			return e
		}
	}
	return nil
}

// Get looks up the plan for (fp, body). The body must be the actual query
// text: a prefix or full-fingerprint collision with a different body is
// rejected, never served.
func (c *Cache) Get(fp query.Fingerprint, body string) (*Plan, bool) {
	e := c.find(fp, body)
	if e == nil {
		return nil, false
	}
	c.touch(e)
	return e.plan, true
}

// Put stores a freshly-built plan under (fp, body) and reports whether it
// evicted the least recently used entry to respect the cap. Putting a
// (fp, body) that is already present keeps the cached plan and discards p.
func (c *Cache) Put(fp query.Fingerprint, body string, p *Plan) (evicted bool) {
	if e := c.find(fp, body); e != nil {
		c.touch(e)
		return false
	}
	e := &cacheEntry{fp: fp, body: body, plan: p}
	c.buckets[fp.Prefix()] = append(c.buckets[fp.Prefix()], e)
	c.lru = append(c.lru, e)
	if len(c.lru) <= c.cap {
		return false
	}
	victim := c.lru[0]
	c.lru = append(c.lru[:0], c.lru[1:]...)
	c.removeFromBucket(victim)
	return true
}

func (c *Cache) removeFromBucket(victim *cacheEntry) {
	pfx := victim.fp.Prefix()
	b := c.buckets[pfx]
	for i, e := range b {
		if e == victim {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(c.buckets, pfx)
	} else {
		c.buckets[pfx] = b
	}
}

// touch moves an entry to the most-recently-used position.
func (c *Cache) touch(e *cacheEntry) {
	for i, x := range c.lru {
		if x == e {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			c.lru = append(c.lru, e)
			return
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.lru) }
