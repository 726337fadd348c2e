package query

import (
	"errors"
	"fmt"

	"hyperfile/internal/pattern"
)

// FilterKind discriminates compiled filters.
type FilterKind uint8

const (
	// FSelect is a tuple-selection filter.
	FSelect FilterKind = iota
	// FDeref is a pointer dereference.
	FDeref
	// FIter is an iterator marker closing a block (the paper's I_j).
	FIter
)

// Filter is one compiled filter F_i. Exactly the fields for its Kind are
// meaningful.
type Filter struct {
	Kind FilterKind

	// FSelect
	Sel Select

	// FDeref
	Var  string
	Keep bool
	// Child is the slot the dereferenced objects start at: the next one,
	// or, in a copy of a bounded iterator's body but its last, the same slot
	// of the next copy, since their pointer chain is one longer.
	Child int

	// FIter: the body spans [BodyStart, position of this filter).
	BodyStart int
	// Exit is the slot an item leaves the iterator for: the next one for a
	// closure, the one after the last copy for a bounded iterator.
	Exit int
	// Final marks the last copy of a bounded iterator's body, where the
	// iteration count is spent and every item leaves.
	Final bool
	// K is the iteration bound, or Closure for transitive closure.
	K int

	// Depth is the iterator nesting depth at this filter's position: 0 for
	// top level, 1 inside one iterator, etc. For an FIter filter, Depth is
	// the depth *outside* the iterator. Explain indents by it.
	Depth int
}

// String renders the compiled filter for diagnostics.
func (f Filter) String() string {
	switch f.Kind {
	case FSelect:
		return f.Sel.String()
	case FDeref:
		return Deref{Var: f.Var, Keep: f.Keep}.String()
	case FIter:
		if f.K == Closure {
			return fmt.Sprintf("iter[%d..]*", f.BodyStart)
		}
		return fmt.Sprintf("iter[%d..]*%d", f.BodyStart, f.K)
	default:
		return "<badfilter>"
	}
}

// Compiled is the executable form of a query: the flat filter list
// F_1 ... F_n of section 3 (0-indexed here), plus retrieval metadata.
//
// A bounded iterator [B]*k is unrolled into max(k, 2) consecutive copies of
// B, each closed by an iterator filter: copy j holds the objects at pointer
// chain length j within the iterator, and the last copy those the count
// lets through without another pass. The filter index of an item thus
// carries its iteration number, so every table keyed by (object, filter
// index) tells chain lengths apart and no item carries a counter. A closure
// [B]** stays one copy that loops back to its start.
type Compiled struct {
	Source  *Query
	Filters []Filter
	// FetchVars lists the retrieval ("->x") binding names in the order they
	// appear, for allocating client-side result bindings.
	FetchVars []string
}

// Len returns the number of compiled filters n.
func (c *Compiled) Len() int { return len(c.Filters) }

// HasFetch reports whether the query retrieves any field values.
func (c *Compiled) HasFetch() bool { return len(c.FetchVars) > 0 }

// ErrCompile is the base error for semantic query errors.
var ErrCompile = errors.New("query: compile error")

// MaxFilters bounds the compiled filter list. Bodies come from any client,
// and unrolling "*1000000000" must fail, not allocate a plan.
const MaxFilters = 1024

// Compile flattens the query body into the executable filter list,
// unrolling bounded iterators, and validates it: every dereferenced
// variable must be bound by some selection filter, iterator bodies must be
// able to make progress, and the list must fit in MaxFilters.
func Compile(q *Query) (*Compiled, error) {
	c := &Compiled{Source: q}
	bound := map[string]bool{}
	var fetchSeen = map[string]bool{}

	var walk func(nodes []Node, depth int) error
	walk = func(nodes []Node, depth int) error {
		for _, n := range nodes {
			switch n := n.(type) {
			case Select:
				for _, p := range []pattern.P{n.Key, n.Data} {
					if v, ok := p.BindsVar(); ok {
						bound[v] = true
					}
					if v, ok := p.FetchesVar(); ok && !fetchSeen[v] {
						fetchSeen[v] = true
						c.FetchVars = append(c.FetchVars, v)
					}
				}
				c.Filters = append(c.Filters, Filter{Kind: FSelect, Sel: n, Depth: depth})
			case Deref:
				c.Filters = append(c.Filters, Filter{Kind: FDeref, Var: n.Var, Keep: n.Keep, Child: len(c.Filters) + 1, Depth: depth})
			case Block:
				if len(n.Body) == 0 {
					return fmt.Errorf("%w: empty iterator body", ErrCompile)
				}
				if n.K != Closure && n.K < 1 {
					return fmt.Errorf("%w: iteration count %d", ErrCompile, n.K)
				}
				copies := 1
				if n.K != Closure {
					copies = max(n.K, 2)
				}
				first := len(c.Filters)
				for j := 1; j <= copies && len(c.Filters) <= MaxFilters; j++ {
					start := len(c.Filters)
					if err := walk(n.Body, depth+1); err != nil {
						return err
					}
					c.Filters = append(c.Filters, Filter{
						Kind: FIter, BodyStart: start, K: n.K, Final: n.K != Closure && j == copies, Depth: depth,
					})
					for i := start; i < len(c.Filters) && j < copies; i++ {
						if f := &c.Filters[i]; f.Kind == FDeref && f.Depth == depth+1 {
							f.Child += len(c.Filters) - start
						}
					}
				}
				for i := first; i < len(c.Filters); i++ {
					if f := &c.Filters[i]; f.Kind == FIter && f.Depth == depth {
						f.Exit = len(c.Filters)
					}
				}
			default:
				return fmt.Errorf("%w: unknown node %T", ErrCompile, n)
			}
			if len(c.Filters) > MaxFilters {
				return fmt.Errorf("%w: body unrolls to more than %d filters", ErrCompile, MaxFilters)
			}
		}
		return nil
	}
	if err := walk(q.Body, 0); err != nil {
		return nil, err
	}

	for _, f := range c.Filters {
		if f.Kind == FDeref && !bound[f.Var] {
			return nil, fmt.Errorf("%w: dereference of variable %q which no selection binds", ErrCompile, f.Var)
		}
	}
	return c, nil
}

// MustCompile parses and compiles src, panicking on error; for tests and
// examples with known-good queries.
func MustCompile(src string) *Compiled {
	c, err := Compile(MustParse(src))
	if err != nil {
		panic(err)
	}
	return c
}
