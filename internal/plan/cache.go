package plan

// Cache is a site-level plan cache keyed by the query body. Every message
// that can create a context carries the body, so a receiving site recognizes
// a body it has already compiled — across query contexts — and skips
// lexing, parsing, and planning entirely. The body is the key itself: a hit
// is the body text comparing equal, so a plan compiled from a different body
// is never served.
//
// The cache is a plain LRU bounded to cap entries. A built plan is immutable
// and every query context holds its own *Plan, so evicting an entry a live
// context still executes changes no answer: a later context with that body
// compiles it again. A Cache is owned by one site and, like the site itself,
// is not safe for concurrent use.
type Cache struct {
	cap     int
	entries map[string]*cacheEntry
	// lru orders entries from least to most recently used.
	lru []*cacheEntry
}

type cacheEntry struct {
	body string
	plan *Plan
}

// NewCache returns a plan cache bounded to at most cap entries. cap must be
// positive.
func NewCache(cap int) *Cache {
	if cap < 1 {
		cap = 1
	}
	return &Cache{cap: cap, entries: make(map[string]*cacheEntry)}
}

// Get looks up the plan compiled from body.
func (c *Cache) Get(body string) (*Plan, bool) {
	e := c.entries[body]
	if e == nil {
		return nil, false
	}
	c.touch(e)
	return e.plan, true
}

// Put stores a freshly-built plan under body and reports whether it evicted
// the least recently used entry to respect the cap. Putting a body that is
// already present keeps the cached plan and discards p. The cache retains
// body, so it must not alias a buffer that is reused.
func (c *Cache) Put(body string, p *Plan) (evicted bool) {
	if e := c.entries[body]; e != nil {
		c.touch(e)
		return false
	}
	e := &cacheEntry{body: body, plan: p}
	c.entries[body] = e
	c.lru = append(c.lru, e)
	if len(c.lru) <= c.cap {
		return false
	}
	victim := c.lru[0]
	c.lru = append(c.lru[:0], c.lru[1:]...)
	delete(c.entries, victim.body)
	return true
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
