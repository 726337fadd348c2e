package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// stepNQuery follows Ref pointers to closure and retrieves each passing
// object's keyword data, so runs carry local spawns, remote references,
// fetches and results at once.
const stepNQuery = `S [ (Pointer, "Ref", ?X) ^^X ]** (keyword, "k", ->v) -> T`

// refGraph stores n objects at site 1, each with a keyword tuple and deg
// random Ref pointers: mostly to each other, some to site 2 (remote for a
// birthLocator(1) engine) and some to ids site 1 never stored (missing).
func refGraph(t *testing.T, rng *rand.Rand, n, deg int) (*store.Store, []object.ID) {
	t.Helper()
	st := store.New(1)
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = st.NewObject().Add("keyword", object.Keyword("k"), object.String("d"))
	}
	for _, o := range objs {
		for j := 0; j < deg; j++ {
			to := objs[rng.Intn(n)].ID
			switch rng.Intn(8) {
			case 0:
				to = object.ID{Birth: 2, Seq: uint64(rng.Intn(n))}
			case 1:
				to = object.ID{Birth: 1, Seq: uint64(1000 + rng.Intn(n))}
			}
			o.Add("Pointer", object.String("Ref"), object.Pointer(to))
		}
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
	}
	return st, ids
}

// TestStepNMatchesStep drains twin engines over the same random graph, one
// with StepN at random limits and one with Step, and checks every run
// against the items Step takes for it: the same items, all at the run's
// start position, remote references on the last item only, and a run that
// stops short of its limit with work left only at a start change or after a
// remote reference. Each run's Stats must equal what Step's items added,
// and the runs' Stats must sum to the drain's.
func TestStepNMatchesStep(t *testing.T) {
	c := query.MustCompile(stepNQuery)
	for _, order := range []Order{BFS, DFS} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st, ids := refGraph(t, rng, 80, 3)
			runs := New(c, st, WithLocator(birthLocator(1)), WithOrder(order))
			steps := New(c, st, WithLocator(birthLocator(1)), WithOrder(order))
			initial := []object.ID{ids[0], ids[1], ids[40]}
			runs.AddInitial(initial...)
			steps.AddInitial(initial...)
			nruns, longest := 0, 0
			var total Stats
			for {
				limit := 1 + rng.Intn(20)
				r := runs.StepN(limit)
				if r.Steps == 0 {
					if _, ok := steps.Step(); ok {
						t.Fatalf("%v seed %d: StepN found no work, Step did", order, seed)
					}
					break
				}
				nruns++
				longest = max(longest, r.Steps)
				total.Add(r.Stats)
				for _, c := range []struct {
					name      string
					got, want int
				}{
					{"Remote", len(r.Remote), r.Stats.RemoteDerefs},
					{"Fetches", len(r.Fetches), r.Stats.Fetched},
					{"Steps", r.Steps, r.Stats.Processed + r.Stats.Skipped + r.Stats.Missing},
				} {
					if c.got != c.want {
						t.Fatalf("%v seed %d run %d: %s %d, Stats moved %d", order, seed, nruns, c.name, c.got, c.want)
					}
				}
				if r.Steps > limit {
					t.Fatalf("%v seed %d run %d: %d steps over limit %d", order, seed, nruns, r.Steps, limit)
				}
				var want Run
				var last StepResult
				stepped := steps.Stats()
				for i := 0; i < r.Steps; i++ {
					res, ok := steps.Step()
					if !ok {
						t.Fatalf("%v seed %d run %d: Step ran dry at item %d of %d", order, seed, nruns, i, r.Steps)
					}
					if res.Item.Start != r.Start {
						t.Fatalf("%v seed %d run %d: item %d starts at %d, the run at %d", order, seed, nruns, i, res.Item.Start, r.Start)
					}
					if len(res.Remote) > 0 && i < r.Steps-1 {
						t.Fatalf("%v seed %d run %d: item %d surfaced remote refs and the run went on", order, seed, nruns, i)
					}
					if res.Passed || res.LocalSpawned > 0 || len(res.Remote) > 0 {
						want.Out++
					}
					want.Fetches = append(want.Fetches, res.Fetches...)
					last = res
				}
				want.Stats = steps.Stats().since(stepped)
				if r.Out != want.Out || r.Stats != want.Stats || !slices.EqualFunc(r.Fetches, want.Fetches, func(a, b Fetch) bool {
					return a.Var == b.Var && a.From == b.From && a.Val.Equal(b.Val)
				}) {
					t.Fatalf("%v seed %d run %d: out %d stats %+v fetches %v, Step gave %d %+v %v",
						order, seed, nruns, r.Out, r.Stats, r.Fetches, want.Out, want.Stats, want.Fetches)
				}
				if !slices.Equal(r.Remote, last.Remote) {
					t.Fatalf("%v seed %d run %d: remote %v, the last item's %v", order, seed, nruns, r.Remote, last.Remote)
				}
				if r.Steps < limit && len(r.Remote) == 0 && steps.HasWork() && steps.peekStart() == r.Start {
					t.Fatalf("%v seed %d run %d: stopped at %d of %d with more work at start %d", order, seed, nruns, r.Steps, limit, r.Start)
				}
			}
			if got, want := runs.Stats(), steps.Stats(); got != want || total != got {
				t.Errorf("%v seed %d: StepN drain %+v (runs summed %+v), Step drain %+v", order, seed, got, total, want)
			}
			got, _ := runs.TakeResults()
			want, _ := steps.TakeResults()
			if !slices.Equal(got, want) || len(got) == 0 {
				t.Errorf("%v seed %d: StepN answer %v, Step answer %v", order, seed, got, want)
			}
			if st := runs.Stats(); st.RemoteDerefs == 0 || st.Missing == 0 || st.Skipped == 0 || st.Fetched == 0 || nruns < 10 || longest < 2 {
				t.Errorf("%v seed %d: the graph must exercise remote refs, missing objects, skips, fetches and many runs, some longer than one item: %+v, %d runs, longest %d", order, seed, st, nruns, longest)
			}
		}
	}
}

// TestStepNStopRules pins each rule on a hand-built working set.
func TestStepNStopRules(t *testing.T) {
	st := store.New(1)
	c := query.MustCompile(stepNQuery)
	obj := func(to ...object.ID) object.ID {
		o := st.NewObject().Add("keyword", object.Keyword("k"), object.String("d"))
		for _, id := range to {
			o.Add("Pointer", object.String("Ref"), object.Pointer(id))
		}
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
		return o.ID
	}
	remote := object.ID{Birth: 2, Seq: 1}
	leaves := []object.ID{obj(), obj(), obj()}
	root := obj(leaves...)
	viaRemote := obj(remote)
	plain := []object.ID{obj(), obj(), obj(), obj(), obj()}

	t.Run("limit", func(t *testing.T) {
		e := New(c, st, WithLocator(birthLocator(1)))
		e.AddInitial(plain...)
		for _, want := range []int{3, 2, 0} {
			if r := e.StepN(3); r.Steps != want {
				t.Fatalf("StepN(3) took %d items, want %d", r.Steps, want)
			}
		}
	})
	t.Run("start change", func(t *testing.T) {
		e := New(c, st, WithLocator(birthLocator(1)))
		e.AddInitial(root)
		r := e.StepN(16)
		if r.Steps != 1 || r.Start != 0 || r.Stats.LocalDerefs != 3 {
			t.Fatalf("first run %+v, want the root alone at start 0 spawning 3", r)
		}
		r = e.StepN(16)
		if r.Steps != 3 || r.Start == 0 {
			t.Fatalf("second run %+v, want the 3 children at their own start", r)
		}
	})
	t.Run("remote ref", func(t *testing.T) {
		e := New(c, st, WithLocator(birthLocator(1)))
		e.AddInitial(plain[0], viaRemote, plain[1])
		r := e.StepN(16)
		if r.Steps != 2 || len(r.Remote) != 1 || r.Remote[0].ID != remote {
			t.Fatalf("first run %+v, want 2 items ending on the remote reference", r)
		}
		if r = e.StepN(16); r.Steps != 1 || len(r.Remote) != 0 {
			t.Fatalf("second run %+v, want the last item alone", r)
		}
	})
}

// peekStart returns the start position of the item Step would take next.
func (e *Engine) peekStart() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peek().Start
}

// TestStepNConcurrentEnqueue: goroutines Enqueue into an engine while
// another drains it in runs, ordered by the engine's mutex alone. Every
// enqueued item is taken exactly once and each run's counts still equal what
// it added to Stats.
func TestStepNConcurrentEnqueue(t *testing.T) {
	st := store.New(1)
	const handlers, perHandler = 4, 200
	ids := make([]object.ID, handlers*perHandler)
	for i := range ids {
		o := st.NewObject().Add("keyword", object.Keyword("k"), object.String("d"))
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID
	}
	e := New(query.MustCompile(`S (keyword, "k", ?) -> T`), st)
	var wg sync.WaitGroup
	for h := 0; h < handlers; h++ {
		wg.Add(1)
		go func(part []object.ID) {
			defer wg.Done()
			for _, id := range part {
				e.Enqueue(NewItem(id))
			}
		}(ids[h*perHandler : (h+1)*perHandler])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	steps, results := 0, 0
	for finished := false; ; {
		r := e.StepN(16)
		steps += r.Steps
		results += r.Stats.Results
		if r.Steps == 0 {
			if finished {
				break
			}
			select {
			case <-done:
				finished = true
			default:
			}
		}
	}
	if steps != len(ids) || results != len(ids) {
		t.Errorf("runs took %d items with %d results, want %d each", steps, results, len(ids))
	}
	if s := e.Stats(); s.Processed != len(ids) || s.Results != len(ids) {
		t.Errorf("Stats %+v after %d enqueued items", s, len(ids))
	}
}
