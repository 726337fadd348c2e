package engine

import (
	"sync"

	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/query"
)

// This file implements the shared-memory multiprocessor mode sketched in the
// paper's conclusion: "all available processors can share the same general
// query information, mark table, and working set. ... each processor
// independently runs the algorithm of Section 3.1. Termination requires that
// the set be empty, and that no processors are still working on the query."
//
// As the paper notes, strict locking against two processors picking up the
// same document is unnecessary — duplicate processing can only produce
// duplicate (set-absorbed) answers, never wrong ones. We nevertheless use an
// atomic mark table, which both suppresses duplicates and keeps closure
// queries from ever looping.

// sharedMarks is a Marks implementation safe for concurrent engines.
type sharedMarks struct {
	mu sync.Mutex
	m  packedMarks
}

// NewSharedMarks returns a concurrency-safe mark table for engines
// cooperating on one query.
func NewSharedMarks() Marks {
	return &sharedMarks{m: packedMarks{s: new(packed.Set)}}
}

func (s *sharedMarks) Test(id object.ID, idx int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Test(id, idx)
}

func (s *sharedMarks) TestAndSet(id object.ID, idx int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.TestAndSet(id, idx)
}

// sharedQueue is the shared working set W plus the idle-worker termination
// protocol.
type sharedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Item
	idle   int
	total  int
	closed bool
}

func newSharedQueue(workers int) *sharedQueue {
	q := &sharedQueue{total: workers}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push adds one item and wakes a worker.
func (q *sharedQueue) push(it Item) {
	q.mu.Lock()
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until an item is available or every worker is idle with an
// empty set (global termination: reports false).
func (q *sharedQueue) pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.items) > 0 {
			it := q.items[0]
			q.items = q.items[1:]
			return it, true
		}
		if q.closed {
			return Item{}, false
		}
		q.idle++
		if q.idle == q.total {
			// Set empty and no processor working: the query terminates.
			q.closed = true
			q.cond.Broadcast()
			return Item{}, false
		}
		q.cond.Wait()
		q.idle--
	}
}

// ParallelResult is the outcome of a RunParallel call.
type ParallelResult struct {
	Results object.IDSet
	Fetches []Fetch
	Stats   Stats
	// Workers is the number of processors used.
	Workers int
}

// RunParallel executes a compiled query over a single (shared-memory) store
// with the given number of worker processors. Results are identical to the
// serial algorithm's; work distribution is nondeterministic but the answer,
// being a set, is not.
func RunParallel(q *query.Compiled, src Source, workers int, initial []object.ID) ParallelResult {
	if workers < 1 {
		workers = 1
	}
	marks := NewSharedMarks()
	queue := newSharedQueue(workers)
	for _, id := range initial {
		queue.push(NewItem(id))
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		merged  []object.ID
		fetches []Fetch
		stats   Stats
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each processor runs the section-3.1 algorithm with its own
			// local state (matching variables live per item) over the
			// shared mark table and working set.
			e := New(q, src, WithMarks(marks), WithSpawnSink(queue.push))
			for {
				it, ok := queue.pop()
				if !ok {
					break
				}
				e.Enqueue(it)
				e.Step()
			}
			r, f := e.TakeResults()
			mu.Lock()
			merged = append(merged, r...)
			fetches = append(fetches, f...)
			stats.Add(e.Stats())
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ParallelResult{Results: object.NewIDSet(merged...), Fetches: fetches, Stats: stats, Workers: workers}
}
