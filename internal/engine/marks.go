package engine

import (
	"sync"

	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/pattern"
)

// packedMarks is the engine-owned mark table: a packed.Set, which keeps one
// mark word per object holding the filter indices it has been processed at,
// as in the paper's per-object sets. Marking an (object, filter) pair
// allocates nothing in the steady state, and the marks one object step makes
// cost one hash probe. Unlike a table installed via WithMarks, a packedMarks
// is engine-owned and ReleaseScratch returns its storage to the pool.
type packedMarks struct{ s *packed.Set }

func (m packedMarks) Test(id object.ID, idx int) bool { return m.s.Contains(id, idx) }

func (m packedMarks) TestAndSet(id object.ID, idx int) bool { return m.s.TestAndSet(id, idx) }

// maxPooledWork bounds the working-set backing arrays the pool keeps. The
// pool hands any array to any query, so a queue grown by one huge closure
// must not be inherited by every small query after it. 4096 items holds the
// frontier of the paper's largest tree (2700 objects).
const maxPooledWork = 4096

// scratch is an engine's pooled storage: the working set's backing array and
// the binding environment's. Lifetimes follow the query context: storage is
// acquired when the engine is built and returned by ReleaseScratch when the
// site finishes, force-completes, or retains the context — the same three
// paths that release the sent-cache and global marks. An engine that is
// never released just leaves its storage to the garbage collector.
type scratch struct {
	work []Item
	env  pattern.Env
}

var scratchPool = sync.Pool{New: func() any { return &scratch{work: make([]Item, 0, 64)} }}

// ReleaseScratch returns the engine's pooled storage — working-set backing,
// binding environment, and engine-owned mark table; a table shared via
// WithMarks is left alone, its owner decides its lifetime. Only valid once
// the query is finished at this site: a retained context keeps its engine
// alive for the distributed-set seed list but never processes again, and its
// marks would otherwise pin one mark word per object the query ever
// reached. The engine stays safe to poke — a straggler Enqueue or mark lands
// in small fresh storage — but is no longer on the pooled path.
func (e *Engine) ReleaseScratch() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.scratch != nil && cap(e.work) <= maxPooledWork {
		// The environment's storage still names this query's variables and
		// holds its values; the next query must see neither.
		clear(e.env[:cap(e.env)])
		e.scratch.work, e.scratch.env = e.work[:0], e.env[:0]
		scratchPool.Put(e.scratch)
	}
	e.scratch, e.work, e.head, e.env = nil, nil, 0, nil
	if m, ok := e.marks.(packedMarks); ok {
		packed.Put(m.s)
		e.marks = packedMarks{s: new(packed.Set)}
	}
}
