package plan

import (
	"testing"

	"hyperfile/internal/query"
)

func testPlan(body string) *Plan {
	return Build(query.MustCompile(body), nil, nil)
}

// TestCacheAcquireInstallRelease checks the lookup cycle a query context
// runs: a miss, a Put of the compiled plan, then hits that return that plan
// and leave the entry cached for later queries.
func TestCacheAcquireInstallRelease(t *testing.T) {
	c := NewCache(4)
	body := `S (keyword, "hot", ?) -> T`

	if _, ok := c.Get(body); ok {
		t.Fatal("hit on an empty cache")
	}
	p := testPlan(body)
	if evicted := c.Put(body, p); evicted {
		t.Fatal("Put into a cache under its cap evicted an entry")
	}
	for i := 0; i < 2; i++ {
		got, ok := c.Get(body)
		if !ok || got != p {
			t.Fatalf("Get #%d did not return the plan put", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after hits, want the entry retained", c.Len())
	}
}

// TestCacheInstallExistingPinsInsteadOfDuplicating checks that a second Put
// of a cached body keeps the first plan and adds no entry.
func TestCacheInstallExistingPinsInsteadOfDuplicating(t *testing.T) {
	c := NewCache(4)
	body := `S (a, ?, ?) -> T`
	p1, p2 := testPlan(body), testPlan(body)
	c.Put(body, p1)
	if evicted := c.Put(body, p2); evicted { // a second compile of the same body
		t.Fatal("Put of a cached body evicted an entry")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (duplicate discarded)", c.Len())
	}
	if got, ok := c.Get(body); !ok || got != p1 {
		t.Fatal("duplicate put replaced the original plan")
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	bodies := []string{
		`S (a, "1", ?) -> T`,
		`S (a, "2", ?) -> T`,
		`S (a, "3", ?) -> T`,
	}
	for i, b := range bodies {
		if evicted := c.Put(b, testPlan(b)); evicted != (i == 2) {
			t.Errorf("Put #%d evicted = %v, want %v", i, evicted, i == 2)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want cap 2", c.Len())
	}
	if _, ok := c.Get(bodies[0]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(bodies[2]); !ok {
		t.Error("MRU entry was evicted")
	}
}

func TestCacheTouchKeepsHotEntryAlive(t *testing.T) {
	c := NewCache(2)
	b1, b2, b3 := `S (a, "1", ?) -> T`, `S (a, "2", ?) -> T`, `S (a, "3", ?) -> T`
	c.Put(b1, testPlan(b1))
	c.Put(b2, testPlan(b2))
	// Re-use body 1: it becomes MRU, so putting body 3 must evict body 2.
	c.Get(b1)
	c.Put(b3, testPlan(b3))
	if _, ok := c.Get(b1); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok := c.Get(b2); ok {
		t.Error("least-recently-used entry survived")
	}
}
