package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"hyperfile/internal/dump"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/store"
	"hyperfile/internal/workload"
)

// numSites is the cluster size of every workload: the paper's three machines.
const numSites = 3

// workloadSpec describes one named workload: its dataset, its query list and
// how many closed-loop clients drive it. Exactly one of Regions and Paper is
// set.
type workloadSpec struct {
	Name string
	// Clients is the closed-loop client count (never more than nproc).
	Clients int
	// Queries is the length of the seeded query list; a window cycles it.
	Queries int
	// Warmup is the number of queries run before the window. It is a count,
	// not a duration, so that setup_s moves when the system's speed does.
	Warmup int

	Regions *workload.RegionSpec
	Paper   *paperSpec
}

// paperSpec is a section-5 dataset plus the closure query run over it.
type paperSpec struct {
	N      int
	PtrKey string
	Class  string
	// Key is the keyword searched for; "" draws "u<i>" per query from the
	// seed (one distinct object per query).
	Key string
}

// workloads returns the five workloads at full or smoke size. Sizes and
// warm-up counts (about one second of queries at the seed commit) are part
// of the benchmark's definition: changing them starts a new baseline.
func workloads(smoke bool) []workloadSpec {
	regions := func(objects, size int, local float64) *workload.RegionSpec {
		return &workload.RegionSpec{
			Objects: objects, Sites: numSites, RegionSize: size,
			LocalProb: local, SelSpace: 10,
			HomeSite: func(region int) int { return region%numSites + 1 },
		}
	}
	// Why each is here (the one-line form is in BENCHMARK.json):
	//   browse          three objects per query, so fixed per-query cost (submit,
	//                   parse/compile/plan, context set-up, Complete, client
	//                   connection handling) is nearly all the work;
	//   local-tree      engine, mark table, store and match kernels work, wire and
	//                   termination carry only Submit/Complete;
	//   scatter-tree    the same trees over all sites, ~200 Derefs per query: wire,
	//                   transport, termination and message handling dominate and
	//                   engine work is bypassed;
	//   chain           270 strictly serial remote hops and one result: per-hop
	//                   latency that neither parallelism nor batching can hide;
	//   tree-selectall  ~26 tuples scanned per object and every object a result:
	//                   result shipping, merge and the Complete frame carry the cost.
	ws := []workloadSpec{
		{
			Name: "browse", Clients: 2, Queries: 30000, Warmup: 2000,
			Regions: regions(60000, 3, 0.5),
		},
		{
			Name: "local-tree", Clients: 2, Queries: 10000, Warmup: 700,
			Regions: regions(60000, 300, 1.0),
		},
		{
			Name: "scatter-tree", Clients: 2, Queries: 3000, Warmup: 200,
			Regions: regions(60000, 300, 0.0),
		},
		{
			Name: "chain", Clients: 1, Queries: 1000, Warmup: 40,
			Paper: &paperSpec{N: 270, PtrKey: "Chain", Class: "Unique"},
		},
		{
			Name: "tree-selectall", Clients: 2, Queries: 1500, Warmup: 100,
			Paper: &paperSpec{N: 2700, PtrKey: "Tree", Class: "Common", Key: "all"},
		},
	}
	if smoke {
		for i := range ws {
			w := &ws[i]
			w.Queries, w.Warmup = 60, 5
			if w.Regions != nil {
				w.Regions.Objects = 600
				if w.Regions.RegionSize > 30 {
					w.Regions.RegionSize = 30
				}
			} else {
				w.Paper.N = 30
			}
		}
	}
	return ws
}

func findWorkload(ws []workloadSpec, name string) (workloadSpec, error) {
	var names []string
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// queryItem is one entry of a workload's query list with its oracle answer.
type queryItem struct {
	Origin  object.SiteID
	Body    string
	Initial []object.ID
	// Want is the expected answer in sorted id order, computed without the
	// query engine.
	Want []object.ID
}

// staging holds a generated dataset in per-site stores, before it is written
// out for the servers. It implements workload.Placer.
type staging struct {
	sites  []object.SiteID
	stores map[object.SiteID]*store.Store
}

func newStaging() *staging {
	s := &staging{stores: make(map[object.SiteID]*store.Store)}
	for i := 1; i <= numSites; i++ {
		id := object.SiteID(i)
		s.sites = append(s.sites, id)
		s.stores[id] = store.New(id, store.WithLargeThreshold(0))
	}
	return s
}

func (s *staging) Sites() []object.SiteID              { return s.sites }
func (s *staging) Store(id object.SiteID) *store.Store { return s.stores[id] }
func (s *staging) Put(id object.SiteID, o *object.Object) error {
	return s.stores[id].Put(o)
}

// objects returns one site's objects in id order.
func (s *staging) objects(id object.SiteID) []*object.Object {
	st := s.stores[id]
	ids := st.IDs()
	out := make([]*object.Object, 0, len(ids))
	for _, oid := range ids {
		if o, ok := st.Get(oid); ok {
			out = append(out, o)
		}
	}
	return out
}

func (s *staging) total() int {
	n := 0
	for _, st := range s.stores {
		n += st.Len()
	}
	return n
}

// dataset is a generated workload instance: staged objects plus the seeded
// query list.
type dataset struct {
	stage *staging
	items []queryItem
	// digest fingerprints the dataset files and the query list; writeDataset
	// sets it.
	digest string
}

// generate builds the workload's dataset and query list from seed alone.
func generate(w workloadSpec, seed int64) (*dataset, error) {
	stage := newStaging()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	items := make([]queryItem, w.Queries)
	switch {
	case w.Regions != nil:
		spec := *w.Regions
		spec.Seed = seed
		d, err := workload.BuildRegions(stage, spec)
		if err != nil {
			return nil, err
		}
		for i := range items {
			region, key := rng.Intn(d.Regions()), 1+rng.Intn(spec.SelSpace)
			root := d.Roots[region]
			items[i] = queryItem{
				Origin:  root.Birth,
				Body:    sim.RegionQuery(key),
				Initial: []object.ID{root},
				Want:    d.ExpectedIDs(region, key),
			}
		}
	case w.Paper != nil:
		p := w.Paper
		d, err := workload.Build(stage, workload.Spec{N: p.N, Machines: numSites, Seed: seed})
		if err != nil {
			return nil, err
		}
		reached := d.Reached(p.PtrKey)
		want := map[string][]object.ID{}
		for i := range items {
			key := p.Key
			if key == "" {
				key = fmt.Sprintf("u%d", rng.Intn(p.N))
			}
			if _, ok := want[key]; !ok {
				want[key] = expectPaper(stage, d, reached, p.Class, key)
			}
			items[i] = queryItem{
				Origin:  d.Root.Birth,
				Body:    workload.ClosureQueryKeyword(p.PtrKey, p.Class, key),
				Initial: []object.ID{d.Root},
				Want:    want[key],
			}
		}
	default:
		return nil, fmt.Errorf("workload %s has no dataset", w.Name)
	}
	return &dataset{stage: stage, items: items}, nil
}

// expectPaper computes a section-5 closure query's answer from the staged
// objects: the reached objects carrying a (class, key) tuple, in id order.
func expectPaper(stage *staging, d *workload.Dataset, reached []int, class, key string) []object.ID {
	var out []object.ID
	for _, i := range reached {
		id := d.IDs[i]
		o, ok := stage.stores[id.Birth].Get(id)
		if !ok {
			continue
		}
		for _, t := range o.Find(class) {
			if t.Key.Str == key {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

// writeSite emits one site's objects as JSON lines, the servers' input.
func (d *dataset) writeSite(w io.Writer, id object.SiteID) error {
	return dump.Write(w, d.stage.objects(id))
}

// hashQueries feeds the query list, answers included, into a digest.
func (d *dataset) hashQueries(h io.Writer) {
	for _, it := range d.items {
		fmt.Fprintf(h, "%d|%s|%v|%v\n", it.Origin, it.Body, it.Initial, it.Want)
	}
}
