package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
	"hyperfile/internal/plan"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
)

// Sizes of the direct-call passes over the layers beneath site. They are
// large enough that one clock pair around the loop resolves a per-call cost
// of a few nanoseconds.
const (
	storeOps       = 20000
	matchObjects   = 5000
	terminationOps = 5000
	transportTrips = 1500
)

// nsPer is d over n as nanoseconds per operation (0 when n is 0).
func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// timeQueryLayers times query.Parse, query.Compile and plan.Build on the
// sample's own bodies, in microseconds per call.
func timeQueryLayers(items []queryItem, st *store.Store) (parseUS, compileUS, buildUS float64, err error) {
	var tp, tc, tb time.Duration
	for i := range items {
		t0 := time.Now()
		parsed, err := query.Parse(items[i].Body)
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		compiled, err := query.Compile(parsed)
		t2 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		_ = plan.Build(compiled, st, nil)
		t3 := time.Now()
		tp, tc, tb = tp+t1.Sub(t0), tc+t2.Sub(t1), tb+t3.Sub(t2)
	}
	n := len(items)
	return nsPer(tp, n) / 1e3, nsPer(tc, n) / 1e3, nsPer(tb, n) / 1e3, nil
}

// mergedStore holds every staged object in one store, so the engine can run
// a whole query with no site layer in the way. Objects are shared with the
// staging stores; nothing mutates them.
func mergedStore(stage *staging) (*store.Store, []*object.Object, error) {
	var all []*object.Object
	for _, id := range stage.sites {
		all = append(all, stage.objects(id)...)
	}
	m := store.New(object.SiteID(numSites+1), store.WithLargeThreshold(0))
	if err := m.BulkLoad(all); err != nil {
		return nil, nil, err
	}
	return m, all, nil
}

// timeEngine runs the sample's queries through a bare engine over the merged
// store and returns nanoseconds per object processed.
func timeEngine(items []queryItem, merged *store.Store) (float64, error) {
	var total time.Duration
	objects := 0
	for i := range items {
		compiled, err := compileBody(items[i].Body)
		if err != nil {
			return 0, err
		}
		e := engine.New(compiled, merged)
		e.AddInitial(items[i].Initial...)
		t0 := time.Now()
		st := e.Run()
		total += time.Since(t0)
		objects += st.Processed
		if got := e.Results().Sorted(); !sameIDs(got, items[i].Want) {
			return 0, fmt.Errorf("engine over merged store: query %d differs from oracle", i)
		}
	}
	return nsPer(total, objects), nil
}

func compileBody(body string) (*query.Compiled, error) {
	parsed, err := query.Parse(body)
	if err != nil {
		return nil, err
	}
	return query.Compile(parsed)
}

// timeStore returns nanoseconds per store.Get and per store.Put over a
// seeded sample of the workload's own objects.
func timeStore(merged *store.Store, all []*object.Object, seed int64) (getNS, putNS float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	pick := make([]*object.Object, storeOps)
	for i := range pick {
		pick[i] = all[rng.Intn(len(all))]
	}
	t0 := time.Now()
	for _, o := range pick {
		if _, ok := merged.Get(o.ID); !ok {
			return 0, 0, fmt.Errorf("store.Get lost %v", o.ID)
		}
	}
	getNS = nsPer(time.Since(t0), len(pick))

	fresh := store.New(object.SiteID(numSites+2), store.WithLargeThreshold(0))
	t0 = time.Now()
	for _, o := range pick {
		if err := fresh.Put(o); err != nil {
			return 0, 0, err
		}
	}
	putNS = nsPer(time.Since(t0), len(pick))
	return getNS, putNS, nil
}

// timeMatch returns nanoseconds per plan.Op.MatchTuple call, running the
// body's selection operators over the tuples of the workload's objects.
func timeMatch(body string, all []*object.Object) (float64, error) {
	compiled, err := compileBody(body)
	if err != nil {
		return 0, err
	}
	p := plan.Build(compiled, nil, nil)
	var sels []*plan.Op
	for i := range p.Ops {
		if p.Ops[i].Kind == query.FSelect {
			sels = append(sels, &p.Ops[i])
		}
	}
	if len(sels) == 0 {
		return 0, errors.New("query body has no selection operator")
	}
	env := pattern.Env{}
	calls, hits := 0, 0
	objs := all[:min(matchObjects, len(all))]
	t0 := time.Now()
	for _, o := range objs {
		for _, t := range o.Tuples {
			for _, op := range sels {
				if op.MatchTuple(t, env) {
					hits++
				}
				calls++
			}
		}
	}
	d := time.Since(t0)
	if hits == 0 {
		return 0, errors.New("no tuple matched any selection: the match kernel was not exercised")
	}
	return nsPer(d, calls), nil
}

// terminationFan is how many work messages one synthetic query's originator
// splits credit over before it goes idle; shares shrink to 2^-8, the depth
// of a 300-object tree.
const terminationFan = 8

// timeTermination returns nanoseconds per weight split (OnSend at the
// originator) and per weight return (OnWorkReceived and OnIdle at a
// participant plus OnControl back at the originator). Each synthetic query
// gets fresh detectors, fans out terminationFan messages and must end with
// the originator Done.
func timeTermination() (splitNS, returnNS float64, err error) {
	const origin, part = object.SiteID(1), object.SiteID(2)
	var split, ret time.Duration
	ops := 0
	for ops < terminationOps {
		o := termination.New(termination.Weighted, origin, origin)
		var toks [terminationFan][]byte
		t0 := time.Now()
		for i := range toks {
			if toks[i], err = o.OnSend(part); err != nil {
				return 0, 0, err
			}
		}
		split += time.Since(t0)
		o.OnIdle()
		t0 = time.Now()
		for _, tok := range toks {
			p := termination.New(termination.Weighted, part, origin)
			if _, err := p.OnWorkReceived(origin, tok); err != nil {
				return 0, 0, err
			}
			for _, c := range p.OnIdle() {
				if err := o.OnControl(part, c.Token); err != nil {
					return 0, 0, err
				}
			}
		}
		ret += time.Since(t0)
		if !o.Done() {
			return 0, 0, errors.New("originator did not recover all credit")
		}
		ops += terminationFan
	}
	return nsPer(split, ops), nsPer(ret, ops), nil
}

// timeTransport bounces msg between two transport.TCP endpoints inside this
// process and returns the median round trip in microseconds and the mean
// cost of one Send call in nanoseconds.
func timeTransport(msg wire.Msg) (roundtripUS, sendNS float64, err error) {
	const a, b = object.SiteID(2001), object.SiteID(2002)
	back := make(chan struct{}, 1)
	// b's handler replies through b itself, which exists only once ListenTCP
	// has returned.
	var self atomic.Pointer[transport.TCP]
	ta, err := transport.ListenTCP(a, "127.0.0.1:0", func(object.SiteID, wire.Msg) { back <- struct{}{} })
	if err != nil {
		return 0, 0, err
	}
	defer ta.Close()
	tb, err := transport.ListenTCP(b, "127.0.0.1:0", func(object.SiteID, wire.Msg) { _ = self.Load().Send(a, msg) })
	if err != nil {
		return 0, 0, err
	}
	defer tb.Close()
	self.Store(tb)
	ta.AddPeer(b, tb.Addr())
	tb.AddPeer(a, ta.Addr())

	trips := make([]time.Duration, 0, transportTrips)
	var send time.Duration
	// The first trips dial both directions; they warm up and are not kept.
	const warm = 20
	for i := 0; i < transportTrips+warm; i++ {
		t0 := time.Now()
		if err := ta.Send(b, msg); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			return 0, 0, errors.New("transport round trip timed out")
		}
		if i >= warm {
			trips = append(trips, time.Since(t0))
			send += t1.Sub(t0)
		}
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	return us(percentile(trips, 0.5)), nsPer(send, len(trips)), nil
}
