// Package index provides the indexing facilities the paper references
// (section 2, citing its companion indexing work): conventional keyword
// indexes over tuple keys, and reachability indexes that precompute the
// pointer closure so queries like "find all documents referenced directly or
// indirectly by this document that in addition have a given keyword" answer
// without traversal.
//
// Indexes are per-site structures built on demand over one store
// (DB.BuildKeywordIndex, the A3 ablation). The query engine does not consult
// them: a selection always scans each object's tuples, as in the paper.
package index

import (
	"strconv"
	"sync"

	"hyperfile/internal/object"
	"hyperfile/internal/store"
)

// Keyword is an inverted index from (tuple type, key text) to the objects
// carrying such a tuple. Numeric keys index under their decimal rendering.
type Keyword struct {
	mu    sync.RWMutex
	terms map[term]object.IDSet
}

type term struct {
	class string
	key   string
}

// Index terms are kind-discriminated so the index's notion of equality
// matches the pattern language's: a text literal matches both strings and
// keywords (but never numbers), while numeric values compare cross-kind
// (Int(5) equals Float(5)). Rendering both Int(5) and String("5") as "5" —
// as a naive String() rendering would — makes a lookup return objects the
// tuple-scan path rejects.
const (
	textTermPrefix    = "t\x00"
	numericTermPrefix = "n\x00"
)

// keyTerm renders an indexable key as its discriminated term; non-text
// non-numeric keys (pointers, bytes, nil) are not indexed.
func keyTerm(v object.Value) (string, bool) {
	switch v.Kind {
	case object.KindString, object.KindKeyword:
		return textTermPrefix + v.Str, true
	case object.KindInt, object.KindFloat:
		return numericTermPrefix + strconv.FormatFloat(normFloat(v.AsFloat()), 'g', -1, 64), true
	default:
		return "", false
	}
}

// normFloat folds negative zero into zero so -0.0 and 0.0 — numerically
// equal — index under one term.
func normFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// NewKeyword returns an empty keyword index.
func NewKeyword() *Keyword {
	return &Keyword{terms: make(map[term]object.IDSet)}
}

// BuildKeyword indexes every object currently in the store.
func BuildKeyword(st *store.Store) *Keyword {
	ix := NewKeyword()
	for _, id := range st.IDs() {
		if o, ok := st.Get(id); ok {
			ix.Insert(o)
		}
	}
	return ix
}

// Insert indexes one object's tuples.
func (ix *Keyword) Insert(o *object.Object) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range o.Tuples {
		if k, ok := keyTerm(t.Key); ok {
			tm := term{class: t.Type, key: k}
			set, ok := ix.terms[tm]
			if !ok {
				set = make(object.IDSet)
				ix.terms[tm] = set
			}
			set.Add(o.ID)
		}
	}
}

// Lookup returns the objects with a (class, key) tuple, matching key against
// text keys, and — when key parses as a number — against numeric keys under
// their decimal rendering too (so Lookup("Rand10", "5") finds Int(5) keys,
// as it always has). The returned set is a copy.
func (ix *Keyword) Lookup(class, key string) object.IDSet {
	out := ix.LookupValue(class, object.String(key))
	if f, err := strconv.ParseFloat(key, 64); err == nil {
		out.AddAll(ix.LookupValue(class, object.Float(f)))
	}
	return out
}

// LookupValue returns the objects with a tuple of the given class whose key
// equals v under the pattern language's literal semantics. The returned set
// is a copy.
func (ix *Keyword) LookupValue(class string, v object.Value) object.IDSet {
	out := make(object.IDSet)
	k, ok := keyTerm(v)
	if !ok {
		return out
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out.AddAll(ix.terms[term{class: class, key: k}])
	return out
}

// Terms returns the number of distinct indexed terms.
func (ix *Keyword) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}

// Reach is a reachability index over one pointer category: for every object
// it precomputes the transitive closure of (Pointer, key) links within one
// store.
type Reach struct {
	mu      sync.RWMutex
	ptrKey  string
	closure map[object.ID]object.IDSet
}

// BuildReach computes the closure index for the given pointer key ("" means
// all pointer tuples).
func BuildReach(st *store.Store, ptrKey string) *Reach {
	ix := &Reach{ptrKey: ptrKey, closure: make(map[object.ID]object.IDSet)}
	ids := st.IDs()
	adj := make(map[object.ID][]object.ID, len(ids))
	for _, id := range ids {
		if o, ok := st.Get(id); ok {
			adj[id] = o.Pointers("Pointer", ptrKey)
		}
	}
	// Iterative BFS per object with memoization on completed nodes. For the
	// graph sizes a site holds, an O(V * E) pass is plenty; cycles are
	// handled by the visited set.
	for _, id := range ids {
		ix.closure[id] = bfsClosure(id, adj)
	}
	return ix
}

func bfsClosure(from object.ID, adj map[object.ID][]object.ID) object.IDSet {
	out := make(object.IDSet)
	queue := []object.ID{from}
	out.Add(from)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !out.Has(v) {
				out.Add(v)
				queue = append(queue, v)
			}
		}
	}
	return out
}

// PtrKey returns the pointer category the index covers.
func (ix *Reach) PtrKey() string { return ix.ptrKey }

// Reachable returns the closure from an object (including itself). The
// returned set is shared; callers must not mutate it.
func (ix *Reach) Reachable(from object.ID) object.IDSet {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.closure[from]
}

// ReachableWith intersects the reachability closure with a keyword lookup:
// "documents referenced directly or indirectly by this document that in
// addition have a given keyword".
func ReachableWith(r *Reach, k *Keyword, from object.ID, class, key string) object.IDSet {
	reach := r.Reachable(from)
	terms := k.Lookup(class, key)
	out := make(object.IDSet)
	// Iterate the smaller side.
	small, big := reach, terms
	if len(big) < len(small) {
		small, big = big, small
	}
	for id := range small {
		if big.Has(id) {
			out.Add(id)
		}
	}
	return out
}
