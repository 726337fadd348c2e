package engine

import (
	"sync"

	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/pattern"
)

// packedMarks is the engine-owned mark table: an open-addressing set over
// packed (birth, seq, filter) keys. One flat slot array stands in for the
// paper's per-object sets of filter indices, so marking an (object, filter)
// pair allocates nothing in the steady state. Unlike a table installed via
// WithMarks, a packedMarks is engine-owned and ReleaseScratch returns its
// storage to the pool.
type packedMarks struct{ s *packed.Set }

func (m packedMarks) Test(id object.ID, idx int) bool {
	hi, lo := packed.IDKey(id, idx)
	return m.s.Contains(hi, lo)
}

func (m packedMarks) TestAndSet(id object.ID, idx int) bool {
	hi, lo := packed.IDKey(id, idx)
	return m.s.TestAndSet(hi, lo)
}

// maxPooledWork bounds the working-set backing arrays workPool keeps. The
// pool hands any array to any query and releasing one clears its whole
// capacity, so a queue grown by one huge closure must not be inherited (and
// re-cleared) by every small query after it. 4096 items holds the frontier
// of the paper's largest tree (2700 objects).
const maxPooledWork = 4096

// The pools below (and packed's set pool) back every engine. Lifetimes
// follow the query context: storage is acquired when the engine is built and
// returned by ReleaseScratch when the site finishes, force-completes, or
// retains the context — the same three paths that release the sent-cache and
// global marks. An engine that is never released just leaves its storage to
// the garbage collector.
var (
	workPool = sync.Pool{New: func() any { w := make([]Item, 0, 64); return &w }}
	envPool  = sync.Pool{New: func() any { return pattern.Env{} }}
)

// stepEnv returns the binding environment for the item about to be
// processed: the per-engine scratch map with every binding set truncated to
// empty. Step is serialized by e.mu and the environment never outlives one
// Step, so one map serves every object the engine processes, and a Bind
// appends into the backing array the previous object's binds left behind.
// An empty binding set reads exactly like an absent one (Env.Lookup).
func (e *Engine) stepEnv() pattern.Env {
	if e.env == nil {
		e.env = envPool.Get().(pattern.Env)
	}
	for k, vs := range e.env {
		e.env[k] = vs[:0]
	}
	return e.env
}

// ReleaseScratch returns the engine's pooled storage — working-set backing,
// scratch environment, and engine-owned mark table; a table shared via
// WithMarks is left alone, its owner decides its lifetime. Only valid once
// the query is finished at this site: a retained context keeps its engine
// alive for the distributed-set seed list but never processes again, and its
// marks would otherwise pin one entry per (object, filter) pair the query
// ever touched. The engine stays safe to poke — a straggler Enqueue or mark
// lands in small fresh storage — but is no longer on the pooled path.
func (e *Engine) ReleaseScratch() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.workptr != nil {
		if full := e.work[:cap(e.work)]; len(full) <= maxPooledWork {
			clear(full) // drop Iters/MVars references before pooling
			*e.workptr = full[:0]
			workPool.Put(e.workptr)
		}
		e.workptr = nil
	}
	e.work, e.head = nil, 0
	if e.env != nil {
		clear(e.env)
		envPool.Put(e.env)
		e.env = nil
	}
	if m, ok := e.marks.(packedMarks); ok {
		packed.Put(m.s)
		e.marks = packedMarks{s: new(packed.Set)}
	}
}
