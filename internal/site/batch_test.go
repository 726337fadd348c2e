package site

import (
	"math/rand"
	"testing"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// mapSent is the map-form sent-cache — the shape the packed set took over
// from — kept as its differential oracle.
type mapSent map[sentKey]struct{}

func (m mapSent) sentBefore(ref engine.RemoteRef) bool {
	k := sentKey{id: ref.ID, start: ref.Start}
	if _, ok := m[k]; ok {
		return true
	}
	m[k] = struct{}{}
	return false
}

// TestSentCacheDifferential drives the packed sent-cache and the map oracle
// with identical randomized dereference streams and asserts identical
// suppression decisions at every step. The id generator is collision-heavy —
// few birth sites, Seq clustered on powers of two, small starts — so the
// packed set's probe chains actually wrap. A second round after releasing
// the packed set back to its pool proves a recycled set behaves exactly like
// a fresh map.
func TestSentCacheDifferential(t *testing.T) {
	for _, seed := range []int64{3, 19, 1991} {
		rng := rand.New(rand.NewSource(seed))
		s := &Site{}
		compiled := query.MustCompile(`S (keyword, "k", ?) -> T`)
		for round := 0; round < 2; round++ {
			oracle := mapSent{}
			ctx := &qctx{eng: engine.New(compiled, store.New(1))}
			for op := 0; op < 20000; op++ {
				ref := engine.RemoteRef{
					ID: object.ID{
						Birth: object.SiteID(rng.Intn(3) + 1),
						Seq:   uint64(rng.Intn(8)) * uint64(1<<uint(rng.Intn(12))),
					},
					Start: rng.Intn(4),
				}
				got := ctx.sentBefore(ref)
				want := oracle.sentBefore(ref)
				if got != want {
					t.Fatalf("seed %d round %d op %d: packed sentBefore(%v/%d) = %v, map says %v",
						seed, round, op, ref.ID, ref.Start, got, want)
				}
			}
			// Release through the production path, then rerun the stream
			// against fresh contexts: the recycled set must carry nothing
			// over.
			s.releaseQueryResources(ctx)
			if ctx.sent != nil {
				t.Fatal("release left the sent-cache attached")
			}
		}
	}
}
