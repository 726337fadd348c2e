// Package engine executes compiled filtering queries with the algorithm of
// the paper's section 3 (Figure 3): a working set of in-flight objects, the
// filter-evaluation function E, and a mark table recording (object,
// filter-index) pairs already processed. Iteration numbers need no state of
// their own: query.Compile unrolls each bounded iterator into one copy of
// its body per chain length, so the filter index carries them.
//
// The engine is single-site: pointers to non-local objects are not followed
// but surfaced as RemoteRef values so that the site layer can ship the query
// to the owning site ("send the query, not the data").
package engine

import (
	"fmt"

	"hyperfile/internal/object"
)

// Item is one entry of the working set W: an object id plus the transient
// processing state the paper attaches to objects (O.start, O.next, O.iter#).
// The iteration number is part of the filter index: a bounded iterator's
// body is unrolled into one copy per chain length (see query.Compiled).
// O.mvars is empty for every object in the working set, so it is not kept
// here: the engine's one environment holds the bindings of the object being
// processed. Only id and start cross site boundaries; next is reconstructed
// at the processing site.
type Item struct {
	ID object.ID
	// Start is the first filter (0-based) to process the object: 0 for
	// initial-set objects, the dereference's child slot for objects reached
	// through a pointer.
	Start int
	// Next is the next filter to apply while the item is in flight.
	Next int
}

// NewItem returns an initial-set item for id (start = next = first filter,
// no bindings).
func NewItem(id object.ID) Item { return Item{ID: id} }

// String renders the item for diagnostics.
func (it Item) String() string {
	return fmt.Sprintf("{%v start=%d next=%d}", it.ID, it.Start, it.Next)
}

// RemoteRef describes a dereference of a pointer to an object owned by
// another site. The site layer turns it into a Deref message carrying the
// query identity plus the paper's per-object fields: O.id and O.start,
// which also encodes O.iter#.
type RemoteRef struct {
	ID    object.ID
	Start int
}

// Fetch is one retrieved field value (the "->var" operator): the binding
// name, the value, and the object it came from.
type Fetch struct {
	Var  string
	From object.ID
	Val  object.Value
}

// Locator decides whether an object id is stored at the local site. The
// engine follows local pointers itself and surfaces remote ones.
type Locator interface {
	IsLocal(object.ID) bool
}

// AllLocal is a Locator for single-site processing: every id is local.
type AllLocal struct{}

// IsLocal always reports true.
func (AllLocal) IsLocal(object.ID) bool { return true }

// Source supplies objects to the engine; *store.Store implements it.
type Source interface {
	Get(object.ID) (*object.Object, bool)
}

// Order selects the working-set discipline. The choice determines the graph
// search order (paper footnote 4): a FIFO queue gives breadth-first search —
// the best average case per Kapidakis — and a LIFO stack gives depth-first.
type Order uint8

const (
	// BFS processes the working set as a FIFO queue (default).
	BFS Order = iota
	// DFS processes the working set as a LIFO stack.
	DFS
)

// String names the order.
func (o Order) String() string {
	if o == DFS {
		return "dfs"
	}
	return "bfs"
}
