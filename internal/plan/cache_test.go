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
	fp := query.FingerprintOf(body)

	if _, ok := c.Get(fp, body); ok {
		t.Fatal("hit on an empty cache")
	}
	p := testPlan(body)
	if evicted := c.Put(fp, body, p); evicted {
		t.Fatal("Put into a cache under its cap evicted an entry")
	}
	for i := 0; i < 2; i++ {
		got, ok := c.Get(fp, body)
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
	fp := query.FingerprintOf(body)
	p1, p2 := testPlan(body), testPlan(body)
	c.Put(fp, body, p1)
	if evicted := c.Put(fp, body, p2); evicted { // a second compile of the same body
		t.Fatal("Put of a cached body evicted an entry")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (duplicate discarded)", c.Len())
	}
	if got, ok := c.Get(fp, body); !ok || got != p1 {
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
	fps := make([]query.Fingerprint, len(bodies))
	for i, b := range bodies {
		fps[i] = query.FingerprintOf(b)
		if evicted := c.Put(fps[i], b, testPlan(b)); evicted != (i == 2) {
			t.Errorf("Put #%d evicted = %v, want %v", i, evicted, i == 2)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want cap 2", c.Len())
	}
	if _, ok := c.Get(fps[0], bodies[0]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(fps[2], bodies[2]); !ok {
		t.Error("MRU entry was evicted")
	}
}

func TestCacheTouchKeepsHotEntryAlive(t *testing.T) {
	c := NewCache(2)
	b1, b2, b3 := `S (a, "1", ?) -> T`, `S (a, "2", ?) -> T`, `S (a, "3", ?) -> T`
	f1, f2, f3 := query.FingerprintOf(b1), query.FingerprintOf(b2), query.FingerprintOf(b3)
	c.Put(f1, b1, testPlan(b1))
	c.Put(f2, b2, testPlan(b2))
	// Re-use body 1: it becomes MRU, so putting body 3 must evict body 2.
	c.Get(f1, b1)
	c.Put(f3, b3, testPlan(b3))
	if _, ok := c.Get(f1, b1); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok := c.Get(f2, b2); ok {
		t.Error("least-recently-used entry survived")
	}
}

// TestCacheRejectsTruncatedPrefixCollision is the adversarial case: two
// fingerprints agreeing on the 8-byte bucket prefix but differing beyond it.
// The bucket is only a lookup accelerator — a hit requires the full 32-byte
// fingerprint AND the body text to match, so neither a prefix collision nor a
// forged full hash with the wrong body can ever be served a foreign plan.
func TestCacheRejectsTruncatedPrefixCollision(t *testing.T) {
	bodyA := `S (keyword, "alpha", ?) -> T`
	bodyB := `S (keyword, "beta", ?) -> T`
	fpA := query.FingerprintOf(bodyA)

	// Fabricate B's fingerprint to collide with A's on the truncated prefix.
	var fpB query.Fingerprint
	copy(fpB[:], fpA[:8])
	for i := 8; i < len(fpB); i++ {
		fpB[i] = ^fpA[i]
	}
	if fpA.Prefix() != fpB.Prefix() {
		t.Fatal("test setup: prefixes must collide")
	}
	if fpA == fpB {
		t.Fatal("test setup: full fingerprints must differ")
	}

	c := NewCache(4)
	planA := testPlan(bodyA)
	c.Put(fpA, bodyA, planA)

	// Prefix collision, different full fingerprint: miss.
	if _, ok := c.Get(fpB, bodyB); ok {
		t.Fatal("prefix collision was served a cached plan")
	}
	// Forged full fingerprint with a different body (hash collision or a
	// lying sender): the body comparison still rejects it.
	if _, ok := c.Get(fpA, bodyB); ok {
		t.Fatal("full-fingerprint forgery with mismatched body was served a cached plan")
	}
	// The honest pair still hits.
	if got, ok := c.Get(fpA, bodyA); !ok || got != planA {
		t.Fatal("honest lookup broken by collision handling")
	}

	// A collision may also be *installed* (site compiled B itself); both
	// entries then coexist in one bucket and resolve exactly.
	planB := testPlan(bodyB)
	c.Put(fpB, bodyB, planB)
	if got, _ := c.Get(fpB, bodyB); got != planB {
		t.Fatal("colliding entries not resolved by full fingerprint")
	}
	if got, _ := c.Get(fpA, bodyA); got != planA {
		t.Fatal("collision install corrupted the original entry")
	}
}
