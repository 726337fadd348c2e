package hyperfile

import (
	"fmt"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
)

// PreparedQuery is the embedded-language binding of the paper's section 2:
// the "->" retrieval operator binds fields into variables of the host
// program, and application code runs for each retrieved value — the Go
// equivalent of the paper's embedded-C sketch:
//
//	n := 1
//	pq, _ := db.Prepare(`S (String, "Author", "Chris Clifton")
//	                       (String, "Title", ->title) -> T`)
//	pq.OnFetch("title", func(v hyperfile.Value, from hyperfile.ID) {
//	    fmt.Printf("Title %d: %s\n", n, v.Str); n++
//	})
//	results, _ := pq.Run([]hyperfile.ID{s})
//
// A prepared query may be Run many times; handlers persist across runs.
type PreparedQuery struct {
	db       *DB
	compiled *query.Compiled
	onFetch  map[string]func(Value, ID)
	onResult func(ID)
	parallel int
}

// Prepare parses and compiles a query for repeated execution against db.
func (db *DB) Prepare(src string) (*PreparedQuery, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{
		db:       db,
		compiled: compiled,
		onFetch:  make(map[string]func(Value, ID)),
	}, nil
}

// OnFetch registers a handler for one "->name" retrieval binding. It
// returns the prepared query for chaining. Registering a name the query
// never fetches is an error at Run time.
func (pq *PreparedQuery) OnFetch(name string, f func(val Value, from ID)) *PreparedQuery {
	pq.onFetch[name] = f
	return pq
}

// OnResult registers a handler invoked once per result-set member.
func (pq *PreparedQuery) OnResult(f func(ID)) *PreparedQuery {
	pq.onResult = f
	return pq
}

// Parallel sets the number of processors for shared-memory execution
// (section 6 of the paper); 0 or 1 means serial.
func (pq *PreparedQuery) Parallel(workers int) *PreparedQuery {
	pq.parallel = workers
	return pq
}

// Run executes the query over the initial set, invoking handlers, and
// returns the result set.
func (pq *PreparedQuery) Run(initial []ID) (IDSet, error) {
	for name := range pq.onFetch {
		found := false
		for _, v := range pq.compiled.FetchVars {
			if v == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("hyperfile: query fetches no binding %q (has %v)",
				name, pq.compiled.FetchVars)
		}
	}

	var (
		results IDSet
		fetches []engine.Fetch
	)
	if pq.parallel > 1 {
		out := engine.RunParallel(pq.compiled, pq.db.st, pq.parallel, initial)
		results, fetches = out.Results, out.Fetches
	} else {
		e := engine.New(pq.compiled, pq.db.st)
		e.AddInitial(initial...)
		e.Run()
		var ids []ID
		ids, fetches = e.TakeResults()
		results = object.NewIDSet(ids...)
		e.ReleaseScratch()
	}
	for _, f := range fetches {
		if h, ok := pq.onFetch[f.Var]; ok {
			h(f.Val, f.From)
		}
	}
	if pq.onResult != nil {
		for _, id := range results.Sorted() {
			pq.onResult(id)
		}
	}
	return results, nil
}

// TraceEvent re-exports the engine's trace event for ExecTrace.
type TraceEvent = engine.TraceEvent

// ExecTrace runs a filtering query like Exec while streaming every
// processing step to the callback — dequeues, selection passes/failures,
// dereferences, iterator routing, results. Use it to debug queries that
// return fewer objects than expected (see docs/QUERYLANG.md).
func (db *DB) ExecTrace(src string, initial []ID, cb func(TraceEvent)) (IDSet, []Fetch, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return nil, nil, err
	}
	e := engine.New(compiled, db.st, engine.WithTrace(cb))
	e.AddInitial(initial...)
	e.Run()
	results, fetches := e.TakeResults()
	return object.NewIDSet(results...), fetches, nil
}

// Explain returns the human-readable execution plan of a query, including
// warnings about closure-semantics hazards.
func Explain(src string) (string, error) {
	q, err := query.Parse(src)
	if err != nil {
		return "", err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return "", err
	}
	return compiled.Explain(), nil
}

// ExecParallel runs a filtering query with the shared-memory multiprocessor
// algorithm of the paper's conclusion: workers share the mark table and
// working set, and the answer is identical to serial execution.
func (db *DB) ExecParallel(src string, workers int, initial []ID) (IDSet, []Fetch, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return nil, nil, err
	}
	out := engine.RunParallel(compiled, db.st, workers, initial)
	return out.Results, out.Fetches, nil
}

// AddBackPointers materializes reverse links, the application-level remedy
// the paper prescribes for backward chaining ("find all routines that call
// this one"): for every tuple (Pointer, key, ->target) in the store, the
// target object gains a tuple (Pointer, backKey, ->source). Existing
// back-pointer tuples with backKey are replaced, so the call is idempotent.
func (db *DB) AddBackPointers(key, backKey string) error {
	st := db.st
	back := make(map[object.ID][]object.ID) // target -> sources
	ids := st.IDs()
	for _, id := range ids {
		o, ok := st.Get(id)
		if !ok {
			continue
		}
		for _, tgt := range o.Pointers("Pointer", key) {
			back[tgt] = append(back[tgt], id)
		}
	}
	for _, id := range ids {
		// Materialize spilled data so the rewrite preserves it.
		o, ok := st.GetFull(id)
		if !ok {
			continue
		}
		updated := object.New(o.ID)
		for _, t := range o.Tuples {
			if t.Type == "Pointer" && t.Key.Text() == backKey {
				continue // drop stale back-pointers
			}
			updated.Tuples = append(updated.Tuples, t.Clone())
		}
		for _, src := range back[id] {
			updated.Add("Pointer", object.String(backKey), object.Pointer(src))
		}
		if err := st.Put(updated); err != nil {
			return err
		}
	}
	return nil
}
