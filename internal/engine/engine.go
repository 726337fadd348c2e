package engine

import (
	"slices"
	"sync"

	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/pattern"
	"hyperfile/internal/plan"
	"hyperfile/internal/query"
)

// Stats aggregates the work the engine has performed; the simulator and the
// experiment harness charge costs against these quantities. Each field's
// metric tag names the registry counter a site counts it in.
type Stats struct {
	// Processed counts objects taken through the filters (the paper's ~8 ms
	// per-object cost unit). Missing and duplicate-skipped objects are not
	// counted.
	Processed int `metric:"site_objects_processed"`
	// Results counts objects added to the local result set (the ~20 ms unit).
	Results int `metric:"site_results_added"`
	// LocalDerefs counts pointers followed to local objects.
	LocalDerefs int `metric:"site_local_derefs"`
	// RemoteDerefs counts pointers surfaced for remote processing.
	RemoteDerefs int `metric:"site_remote_derefs"`
	// Skipped counts items dropped because their (id, start) was already in
	// the mark table — the paper's duplicate-message suppression.
	Skipped int `metric:"site_marks_skipped"`
	// Missing counts dereferenced ids the local store could not supply.
	Missing int `metric:"site_missing_objects"`
	// Fetched counts retrieved field values.
	Fetched int `metric:"site_fetched"`
	// TuplesScanned counts tuples examined by selection filters — the
	// quantity effect-free early exit reduces.
	TuplesScanned int `metric:"site_tuples_scanned"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Processed += other.Processed
	s.Results += other.Results
	s.LocalDerefs += other.LocalDerefs
	s.RemoteDerefs += other.RemoteDerefs
	s.Skipped += other.Skipped
	s.Missing += other.Missing
	s.Fetched += other.Fetched
	s.TuplesScanned += other.TuplesScanned
}

// since returns the work s counts beyond earlier.
func (s Stats) since(earlier Stats) Stats {
	return Stats{
		Processed:     s.Processed - earlier.Processed,
		Results:       s.Results - earlier.Results,
		LocalDerefs:   s.LocalDerefs - earlier.LocalDerefs,
		RemoteDerefs:  s.RemoteDerefs - earlier.RemoteDerefs,
		Skipped:       s.Skipped - earlier.Skipped,
		Missing:       s.Missing - earlier.Missing,
		Fetched:       s.Fetched - earlier.Fetched,
		TuplesScanned: s.TuplesScanned - earlier.TuplesScanned,
	}
}

// StepResult reports what processing one working-set item did.
type StepResult struct {
	// Item is the item that was popped.
	Item Item
	// Processed is false when the item was skipped via the mark table
	// (Skipped) or its object is not present locally (Missing).
	Processed, Skipped, Missing bool
	// Passed is true when the object passed every filter and joined the
	// result set.
	Passed bool
	// LocalSpawned counts objects this step added to the working set.
	LocalSpawned int
	// Remote lists dereferences that must be forwarded to other sites.
	Remote []RemoteRef
	// Fetches lists field values retrieved by "->" patterns during the step.
	Fetches []Fetch
}

// Marks is the mark-table abstraction: the set of (object, filter index)
// pairs already processed. The default is an engine-owned packed table
// (packedMarks), per-site as in the paper's design; a shared implementation
// enables the shared-memory multiprocessor mode of section 6.
type Marks interface {
	// TestAndSet records (id, idx) and reports whether it was already set.
	TestAndSet(id object.ID, idx int) bool
	// Test reports whether (id, idx) is set.
	Test(id object.ID, idx int) bool
}

// Engine processes one query at one site; each query context owns one
// engine. All exported methods are serialized by an internal mutex, so an
// engine is safe for concurrent use: one goroutine may run Step or StepN
// while others call Enqueue/HasWork/Stats. The mutex covers the whole of
// Step, and of a StepN run, so the mark table and working set need no finer
// synchronization: at most one goroutine is ever inside the filter pipeline.
// A site calls its engines under its own lock, so there they never contend.
// (Concurrent processing
// shares state across engines via WithMarks and WithSpawnSink — see
// RunParallel; a table installed with WithMarks must itself be
// concurrency-safe if engines sharing it run in parallel.)
type Engine struct {
	p     *plan.Plan
	src   Source
	loc   Locator
	order Order

	// mu guards everything below. Internal helpers (applySelect, push, pop,
	// ...) assume it is held by the exported caller.
	mu sync.Mutex
	// work[head:] is the live working set; BFS pops advance head instead of
	// reslicing so the backing array survives a full drain and push can
	// compact in place rather than grow.
	work  []Item
	head  int
	marks Marks
	// env is the binding environment O.mvars of the object being processed,
	// emptied at the start of every Step: no item in the working set holds a
	// binding. scratch is the pooled storage behind work and env, nil once
	// ReleaseScratch has returned it.
	env     pattern.Env
	scratch *scratch
	// spawn, when set, receives locally-dereferenced items instead of the
	// engine's own working set.
	spawn func(Item)
	// trace, when set, receives every processing step.
	trace func(TraceEvent)

	// results is append-only between drains: an object that passes at two
	// start positions is appended twice, and TakeResults sorts and compacts
	// once per drain instead of paying a map insert per result.
	results []object.ID
	fetches []Fetch
	stats   Stats
}

// Option configures an Engine.
type Option func(*Engine)

// WithLocator sets the locality oracle (default: AllLocal).
func WithLocator(l Locator) Option {
	return func(e *Engine) { e.loc = l }
}

// WithOrder sets the working-set discipline (default: BFS).
func WithOrder(o Order) Option {
	return func(e *Engine) { e.order = o }
}

// WithMarks replaces the engine-local mark table (e.g. with one shared by
// several engines on a shared-memory multiprocessor).
func WithMarks(m Marks) Option {
	return func(e *Engine) { e.marks = m }
}

// WithSpawnSink redirects locally-dereferenced items to sink instead of the
// engine's own working set, so a coordinator can distribute them.
func WithSpawnSink(sink func(Item)) Option {
	return func(e *Engine) { e.spawn = sink }
}

// New returns an engine for one compiled query over the given object source.
// The query is lowered to a fresh physical plan; use NewPlanned to execute
// a pre-built — possibly cached — plan.
func New(q *query.Compiled, src Source, opts ...Option) *Engine {
	return NewPlanned(plan.Build(q, nil, nil), src, opts...)
}

// NewPlanned returns an engine executing a pre-built physical plan. The plan
// is read-only to the engine, so one plan (e.g. out of a site's plan cache)
// may back any number of engines concurrently.
func NewPlanned(p *plan.Plan, src Source, opts ...Option) *Engine {
	e := &Engine{
		p:   p,
		src: src,
		loc: AllLocal{},
	}
	for _, o := range opts {
		o(e)
	}
	// After the options, so a table installed via WithMarks is never
	// overridden (and no pooled set is acquired just to leak).
	if e.marks == nil {
		e.marks = packedMarks{s: packed.Get()}
	}
	e.scratch = scratchPool.Get().(*scratch)
	e.work, e.env = e.scratch.work, e.scratch.env
	return e
}

// Plan returns the physical plan the engine executes.
func (e *Engine) Plan() *plan.Plan { return e.p }

// AddInitial seeds the working set with initial-set objects (start = 0).
func (e *Engine) AddInitial(ids ...object.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range ids {
		e.push(NewItem(id))
	}
}

// Enqueue adds an item arriving from another site (a remote dereference):
// next is reset to start and the binding environment starts empty, exactly as
// the paper specifies for messages.
func (e *Engine) Enqueue(it Item) {
	e.mu.Lock()
	defer e.mu.Unlock()
	it.Next = it.Start
	e.push(it)
}

// HasWork reports whether the working set is non-empty.
func (e *Engine) HasWork() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.work) > e.head
}

// Pending returns the number of items in the working set.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.work) - e.head
}

// DiscardWork empties the working set without processing it (cooperative
// cancellation or deadline shedding). Dedup marks and the accumulated
// result set are untouched.
func (e *Engine) DiscardWork() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.work = e.work[:0]
	e.head = 0
}

// Results returns a snapshot set of the results accumulated since the last
// TakeResults. It is built on every call and does not follow later steps;
// the site and the API take results with TakeResults alone.
func (e *Engine) Results() object.IDSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return object.NewIDSet(e.results...)
}

// TakeResults returns the results accumulated since the last call, sorted
// (ID.Compare) and without duplicates, and the fetches, and resets both.
// This supports the paper's protocol of flushing Q.result to the originator
// whenever the working set drains. The caller owns the returned slice.
func (e *Engine) TakeResults() ([]object.ID, []Fetch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, f := e.results, e.fetches
	slices.SortFunc(r, object.ID.Compare)
	r = slices.Clip(slices.Compact(r))
	e.results, e.fetches = nil, nil
	return r, f
}

// Stats returns cumulative statistics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// MarkCount returns the number of marked (object, filter) pairs in an
// engine-owned mark table, or -1 for a shared table installed via
// WithMarks (whose size is not this engine's to report).
func (e *Engine) MarkCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.marks.(packedMarks); ok {
		return m.s.Len()
	}
	return -1
}

func (e *Engine) push(it Item) {
	if e.head > 0 && len(e.work) == cap(e.work) {
		// The queue is about to grow while dead popped slots sit in front of
		// head: compact in place instead of reallocating.
		n := copy(e.work, e.work[e.head:])
		e.work = e.work[:n]
		e.head = 0
	}
	e.work = append(e.work, it)
}

// peek returns the item pop would take next.
func (e *Engine) peek() *Item {
	if e.order == DFS {
		return &e.work[len(e.work)-1]
	}
	return &e.work[e.head]
}

func (e *Engine) pop() Item {
	var it Item
	if e.order == DFS {
		last := len(e.work) - 1
		it = e.work[last]
		e.work = e.work[:last]
		if last == e.head {
			e.work = e.work[:0]
			e.head = 0
		}
	} else {
		it = e.work[e.head]
		e.head++
		if e.head == len(e.work) {
			e.work = e.work[:0]
			e.head = 0
		}
	}
	return it
}

// Step pops one item and runs it through the filters until it passes, fails,
// or is entirely dereferenced away. It reports false when the working set is
// empty.
//
// This is the body of Figure 3's outer loop. Exposing it one item at a time
// lets the simulator charge per-object processing cost and interleave message
// arrivals. A real server steps in runs (StepN) and yields between runs.
func (e *Engine) Step() (StepResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.work) == e.head {
		return StepResult{}, false
	}
	res := StepResult{Item: e.pop()}
	e.step(&res)
	return res, true
}

// Run is what one StepN call did.
type Run struct {
	// Start is the start position every item of the run shared.
	Start int
	// Steps counts the items taken.
	Steps int
	// Stats is what the run added to the engine's Stats.
	Stats Stats
	// Out counts the items that passed, spawned local work or surfaced a
	// remote reference: a trace span's Out.
	Out int
	// Remote lists the remote references of the run's last item, the only
	// one that can have any. Fetches lists every item's retrieved values.
	Remote  []RemoteRef
	Fetches []Fetch
}

// StepN takes up to limit consecutive items under one lock, running each
// exactly as Step would. The run ends early at an item whose start position
// differs from the first's, so one run feeds one per-filter span, and after
// an item that surfaces a remote reference, so the caller routes references
// item by item as it would after Step. Steps is 0 when the working set is
// empty.
func (e *Engine) StepN(limit int) Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	var r Run
	// One StepResult serves the whole run: each item resets the fields step
	// reports per item, Fetches accumulates, and Remote stays nil until the
	// item that ends the run.
	var res StepResult
	before := e.stats
	for r.Steps < limit && len(e.work) > e.head {
		if r.Steps > 0 && e.peek().Start != r.Start {
			break
		}
		res.Item = e.pop()
		res.Processed, res.Skipped, res.Missing, res.Passed = false, false, false, false
		res.LocalSpawned = 0
		e.step(&res)
		if r.Steps == 0 {
			r.Start = res.Item.Start
		}
		r.Steps++
		if res.Passed || res.LocalSpawned > 0 || len(res.Remote) > 0 {
			r.Out++
		}
		if len(res.Remote) > 0 {
			r.Remote = res.Remote
			break
		}
	}
	r.Fetches = res.Fetches
	r.Stats = e.stats.since(before)
	return r
}

// step runs the item in res through the filters, filling in the rest of res.
// Step and StepN share it.
func (e *Engine) step(res *StepResult) {
	it := res.Item
	e.emit(TraceEvent{ID: it.ID, Filter: -1, Action: TraceDequeued})

	// Duplicate suppression: "if a marked object is found in the working
	// set it is ignored" — refined by start position (the mark table stores
	// the set of filter indices at which the object has been processed).
	if e.marks.Test(it.ID, it.Start) {
		e.skip(it.ID, res)
		return
	}
	obj, ok := e.src.Get(it.ID)
	if !ok {
		// The object is gone (deleted or moved between naming and
		// processing). Partial results are better than none: drop it.
		e.stats.Missing++
		res.Missing = true
		e.emit(TraceEvent{ID: it.ID, Filter: -1, Action: TraceMissing})
		return
	}
	// Claim the start mark before processing. Engines sharing one table
	// (RunParallel) can both pass the test above, and only the one that sets
	// the mark may process the object. An engine alone always wins here,
	// on the slot the test just probed.
	if it.Start < e.p.Len() && e.marks.TestAndSet(it.ID, it.Start) {
		e.skip(it.ID, res)
		return
	}
	e.stats.Processed++
	res.Processed = true
	e.env.Reset()

	alive := true
	for alive && it.Next < e.p.Len() {
		e.marks.TestAndSet(it.ID, it.Next)
		op := &e.p.Ops[it.Next]
		switch op.Kind {
		case query.FSelect:
			if op.FuseDeref {
				alive = e.applyFused(op, obj, &it, res)
			} else {
				alive = e.applySelect(op, obj, &it, res)
			}
		case query.FDeref:
			alive = e.applyDeref(&op.F, &it, res)
		case query.FIter:
			e.applyIter(&op.F, &it)
		}
	}
	if alive {
		e.results = append(e.results, it.ID)
		e.stats.Results++
		res.Passed = true
		e.emit(TraceEvent{ID: it.ID, Filter: -1, Action: TraceResult})
	}
}

// skip records that the item for id was dropped as a duplicate.
func (e *Engine) skip(id object.ID, res *StepResult) {
	e.stats.Skipped++
	res.Skipped = true
	e.emit(TraceEvent{ID: id, Filter: -1, Action: TraceSkipped})
}

// Run drains the working set completely (single-site processing) and returns
// the statistics for the drain.
func (e *Engine) Run() Stats {
	before := e.Stats()
	for {
		if _, ok := e.Step(); !ok {
			break
		}
	}
	return e.Stats().since(before)
}

// applySelect implements E for selection filters: the object passes if any
// tuple matches all three patterns; bindings and fetches are applied for
// every matching tuple. The physical operator supplies the in-place tuple
// matcher and an early exit for effect-free selections.
func (e *Engine) applySelect(op *plan.Op, obj *object.Object, it *Item, res *StepResult) bool {
	if !e.scanSelect(op, obj, res) {
		e.emit(TraceEvent{ID: obj.ID, Filter: it.Next, Action: TraceFailedSelect})
		return false
	}
	e.emit(TraceEvent{ID: obj.ID, Filter: it.Next, Action: TracePassedSelect})
	it.Next++
	return true
}

// scanSelect runs the tuple scan of a selection, applying bind/fetch effects
// for every matching tuple, and reports whether any tuple matched. An
// effect-free selection stops at the first match — later matches could only
// re-confirm the same boolean.
func (e *Engine) scanSelect(op *plan.Op, obj *object.Object, res *StepResult) bool {
	sel := &op.F.Sel
	matched := false
	for i := range obj.Tuples {
		t := &obj.Tuples[i]
		e.stats.TuplesScanned++
		if !op.Match(t, e.env) {
			continue
		}
		matched = true
		if !op.HasEffects {
			break
		}
		e.applyFieldEffects(&sel.Key, &t.Key, obj.ID, res)
		e.applyFieldEffects(&sel.Data, &t.Data, obj.ID, res)
	}
	return matched
}

// applyFused executes a select→deref pair as one kernel: the selection part
// (scan, effects) runs first, and only if the object passes does the
// dereference at the next slot run — marked and traced exactly as the
// standalone two-dispatch path would have. Items entering at the deref slot
// directly (remote arrivals, loopbacks) still execute it standalone.
func (e *Engine) applyFused(op *plan.Op, obj *object.Object, it *Item, res *StepResult) bool {
	if !e.applySelect(op, obj, it, res) {
		return false
	}
	// it.Next now sits on the fused dereference slot.
	e.marks.TestAndSet(it.ID, it.Next)
	return e.applyDeref(&e.p.Ops[it.Next].F, it, res)
}

// applyFieldEffects binds or fetches the matched field *v as pattern *p asks;
// the value is copied only when it is kept.
func (e *Engine) applyFieldEffects(p *pattern.P, v *object.Value, from object.ID, res *StepResult) {
	switch p.Op {
	case pattern.OpBind:
		e.env.Bind(p.Var, *v)
	case pattern.OpFetch:
		fe := Fetch{Var: p.Var, From: from, Val: *v}
		e.fetches = append(e.fetches, fe)
		res.Fetches = append(res.Fetches, fe)
		e.stats.Fetched++
	}
}

// applyDeref implements E for dereference filters: every pointer bound to the
// variable spawns a new working-set item (or a remote reference) starting at
// the filter's child slot. With Keep the dereferencing object continues;
// otherwise it is consumed.
func (e *Engine) applyDeref(f *query.Filter, it *Item, res *StepResult) bool {
	vals := e.env.Lookup(f.Var)
	for i := range vals {
		v := &vals[i]
		if v.Kind != object.KindPointer {
			continue
		}
		if e.loc.IsLocal(v.Ptr) {
			child := Item{ID: v.Ptr, Start: f.Child, Next: f.Child}
			if e.spawn != nil {
				e.spawn(child)
			} else {
				e.push(child)
			}
			e.stats.LocalDerefs++
			res.LocalSpawned++
		} else {
			res.Remote = append(res.Remote, RemoteRef{ID: v.Ptr, Start: f.Child})
			e.stats.RemoteDerefs++
		}
	}
	e.emit(TraceEvent{
		ID: it.ID, Filter: it.Next, Action: TraceDereferenced,
		Local: res.LocalSpawned, Remote: len(res.Remote),
	})
	if !f.Keep {
		return false
	}
	it.Next++
	return true
}

// applyIter implements E for iterator markers: objects that have traversed
// the whole body (start at or before the body) or reached the last copy of a
// bounded body leave for the filter after the iterator; others loop back to
// the body start. Objects one pointer further along a bounded iterator were
// already started in the next copy by the dereference that reached them.
func (e *Engine) applyIter(f *query.Filter, it *Item) {
	if it.Start <= f.BodyStart || f.Final {
		e.emit(TraceEvent{ID: it.ID, Filter: it.Next, Action: TraceExitedIter})
		it.Next = f.Exit
		return
	}
	e.emit(TraceEvent{ID: it.ID, Filter: it.Next, Action: TraceLoopedBack})
	it.Start = f.BodyStart // so that it passes next time
	it.Next = f.BodyStart
}
