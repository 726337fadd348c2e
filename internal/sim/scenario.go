package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hyperfile/internal/site"
)

// Scenario is a declarative spec for one deterministic simulator run: a
// topology (which compiles to a per-link latency matrix), a dataset and a
// query schedule, a seeded failure schedule, and the execution features to
// enable. Equal specs always compile to byte-identical runs; the spec JSON is
// embedded in every recorded trace so a trace alone re-simulates the run.
//
// The spec is pure data: it names the sites' knobs (site.Tuning) but runs
// nothing. The cluster package compiles it (cluster.RunScenario); this package owns the
// vocabulary, the topology math, and the seeded schedule generators, so tools
// and tests can reason about scenarios without a cluster.
type Scenario struct {
	Name    string `json:"name"`
	Comment string `json:"comment,omitempty"`
	// Seed drives every random choice in the scenario: dataset generation,
	// topology wiring, query schedules. Equal seeds mean equal runs.
	Seed  int64 `json:"seed"`
	Sites int   `json:"sites"`

	Topology Topology  `json:"topology"`
	Workload Workload  `json:"workload"`
	Failures []Failure `json:"failures,omitempty"`
	Exec     Exec      `json:"exec,omitempty"`

	// TraceMessages records every inter-site delivery in the trace (one line
	// per message). Only sensible for small scenarios; the default trace
	// carries query lifecycle, failure, and summary events.
	TraceMessages bool `json:"trace_messages,omitempty"`
}

// Topology names an overlay graph over the sites. Link latency between two
// sites is their hop distance in the overlay times HopLatencyUS — the paper's
// single-Ethernet latency generalized to multi-hop interconnects.
type Topology struct {
	// Kind is one of "uniform" (every pair one hop — the paper's Ethernet),
	// "star" (site 1 is the hub), "ring", "tree" (balanced Degree-ary),
	// "hypergraph" (Edges seeded hyperedges of Degree sites each; sites
	// sharing a hyperedge are adjacent), or "p2p" (seeded random graph:
	// a ring backbone plus Degree random chords per site).
	Kind string `json:"kind"`
	// HopLatencyUS is the one-hop wire latency in microseconds (default:
	// the cost model's Latency, i.e. the paper's 10ms).
	HopLatencyUS int64 `json:"hop_latency_us,omitempty"`
	// Degree parameterizes the kind: tree arity, hyperedge size, or p2p
	// chords per site.
	Degree int `json:"degree,omitempty"`
	// Edges is the hyperedge count (hypergraph only).
	Edges int `json:"edges,omitempty"`
	// ScalePct scales every link latency by this percentage (default 100).
	// Metamorphic tests raise it to check latency monotonicity.
	ScalePct int `json:"scale_pct,omitempty"`
}

// Workload describes the dataset and the query schedule.
type Workload struct {
	// Kind is "paper" (the section-5 generator from internal/workload:
	// chain/tree/random-locality pointers, the full key-tuple complement) or
	// "regions" (the scale-out generator: objects partitioned into bounded
	// traversal regions, built through the store bulk-load path, so
	// million-object datasets load in seconds).
	Kind    string `json:"kind"`
	Objects int    `json:"objects"`

	// StructureMachines pins the paper generator's logical graph to a
	// machine count independent of placement (see workload.Spec).
	StructureMachines int `json:"structure_machines,omitempty"`
	// Pointer/Class name the paper generator's traversal pointer class and
	// selection class for generated queries (e.g. "Tree" over "Rand10").
	Pointer string `json:"pointer,omitempty"`
	Class   string `json:"class,omitempty"`

	// RegionSize bounds each traversal region of the regions generator:
	// pointers never leave an object's region, so a query's closure touches
	// at most RegionSize objects no matter how large the dataset is.
	RegionSize int `json:"region_size,omitempty"`
	// LocalProb is the probability an object is placed on its region's home
	// site (the locality class); the rest scatter uniformly.
	LocalProb float64 `json:"local_prob,omitempty"`
	// Placement maps regions to home sites: "spread" round-robins over all
	// sites; "hot" concentrates every region on the first HotSites sites.
	Placement string `json:"placement,omitempty"`
	HotSites  int    `json:"hot_sites,omitempty"`
	// SelSpace is the selection-key space of the regions generator's "Sel"
	// tuple (default 10, the paper's Rand10 selectivity).
	SelSpace int `json:"sel_space,omitempty"`

	// Queries, when non-empty, is the explicit schedule (a recorded hfload
	// incident replays through this). Otherwise Count queries are generated
	// from the arrival spec below with the scenario seed.
	Queries []Query `json:"queries,omitempty"`
	Count   int     `json:"count,omitempty"`
	// Arrival is "batch" (all at t=0), "poisson" (seeded exponential gaps at
	// RateQPS in virtual time), or "flash" (a quarter trickle in at RateQPS,
	// the rest land together at FlashAtUS).
	Arrival   string  `json:"arrival,omitempty"`
	RateQPS   float64 `json:"rate_qps,omitempty"`
	FlashAtUS int64   `json:"flash_at_us,omitempty"`
	// Spread picks each generated query's target region: "roundrobin",
	// "uniform" (seeded), or "hot" (seeded, quadratically skewed toward
	// region 0 — the hot-spot pattern). Paper-kind queries ignore it.
	Spread string `json:"spread,omitempty"`
}

// Query is one scheduled query: submitted at virtual time AtUS from a client
// attached to Origin. Region selects the initial set: a region root for the
// regions generator, or -1 for the paper dataset's root object.
type Query struct {
	AtUS   int64  `json:"at_us"`
	Origin int    `json:"origin"`
	Body   string `json:"body"`
	Region int    `json:"region"`
}

// Failure is one scheduled fault at an exact virtual time.
//
//   - "partition": links between group A and group B (B empty = everyone
//     else) go down; messages sent across the cut queue in the reliable
//     transport and deliver after the healing event, exactly as the TCP
//     layer's retransmission would.
//   - "heal": every partitioned link comes back; queued messages flush.
//   - "crash": Site drops off permanently — inbound messages are lost, its
//     queries never answer, and querying it yields partial answers. DetectUS
//     after the crash (default 100ms) every live site's failure detector
//     declares it dead: engaged originators force-complete with the partial
//     answer and later queries suppress dereferences to the corpse, naming it
//     unreachable.
type Failure struct {
	AtUS     int64  `json:"at_us"`
	Kind     string `json:"kind"`
	A        []int  `json:"a,omitempty"`
	B        []int  `json:"b,omitempty"`
	Site     int    `json:"site,omitempty"`
	DetectUS int64  `json:"detect_us,omitempty"`
}

// Exec selects the execution features of a scenario's sites: the
// deployment knobs, declared once as site.Tuning. The zero Exec runs the
// production configuration. Its JSON keys are the spec's "exec" object; keys
// it does not name, such as the retired workers, fair_quantum, plan_cache,
// index and result_batch, are ignored.
type Exec = site.Tuning

// topologyKinds and the other enum sets double as validation tables.
var topologyKinds = map[string]bool{
	"uniform": true, "star": true, "ring": true,
	"tree": true, "hypergraph": true, "p2p": true,
}
var workloadKinds = map[string]bool{"paper": true, "regions": true}
var arrivalKinds = map[string]bool{"": true, "batch": true, "poisson": true, "flash": true}
var spreadKinds = map[string]bool{"": true, "roundrobin": true, "uniform": true, "hot": true}
var placementKinds = map[string]bool{"": true, "spread": true, "hot": true}
var failureKinds = map[string]bool{"partition": true, "heal": true, "crash": true}

// Validate checks the spec for structural errors. It does not mutate.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Sites < 1 {
		return fmt.Errorf("scenario %s: sites = %d", s.Name, s.Sites)
	}
	if !topologyKinds[s.Topology.Kind] {
		return fmt.Errorf("scenario %s: unknown topology kind %q", s.Name, s.Topology.Kind)
	}
	if s.Topology.HopLatencyUS < 0 || s.Topology.ScalePct < 0 {
		return fmt.Errorf("scenario %s: negative latency parameters", s.Name)
	}
	w := s.Workload
	if !workloadKinds[w.Kind] {
		return fmt.Errorf("scenario %s: unknown workload kind %q", s.Name, w.Kind)
	}
	if w.Objects < 1 {
		return fmt.Errorf("scenario %s: objects = %d", s.Name, w.Objects)
	}
	if !arrivalKinds[w.Arrival] {
		return fmt.Errorf("scenario %s: unknown arrival %q", s.Name, w.Arrival)
	}
	if !spreadKinds[w.Spread] {
		return fmt.Errorf("scenario %s: unknown spread %q", s.Name, w.Spread)
	}
	if !placementKinds[w.Placement] {
		return fmt.Errorf("scenario %s: unknown placement %q", s.Name, w.Placement)
	}
	if w.Kind == "regions" && w.RegionSize < 1 {
		return fmt.Errorf("scenario %s: regions workload needs region_size", s.Name)
	}
	if w.Placement == "hot" && w.HotSites < 1 {
		return fmt.Errorf("scenario %s: hot placement needs hot_sites", s.Name)
	}
	if len(w.Queries) == 0 && w.Count < 1 {
		return fmt.Errorf("scenario %s: no queries (set count or queries)", s.Name)
	}
	if (w.Arrival == "poisson" || w.Arrival == "flash") && w.RateQPS <= 0 && len(w.Queries) == 0 {
		return fmt.Errorf("scenario %s: %s arrivals need rate_qps", s.Name, w.Arrival)
	}
	for i, q := range w.Queries {
		if q.Origin < 1 || q.Origin > s.Sites {
			return fmt.Errorf("scenario %s: query %d origin %d out of range", s.Name, i, q.Origin)
		}
		if q.AtUS < 0 {
			return fmt.Errorf("scenario %s: query %d at_us < 0", s.Name, i)
		}
		if q.Body == "" {
			return fmt.Errorf("scenario %s: query %d has no body", s.Name, i)
		}
	}
	if err := s.Exec.Validate(); err != nil {
		return fmt.Errorf("scenario %s: exec: %w", s.Name, err)
	}
	for i, f := range s.Failures {
		if !failureKinds[f.Kind] {
			return fmt.Errorf("scenario %s: failure %d: unknown kind %q", s.Name, i, f.Kind)
		}
		if f.AtUS < 0 || f.DetectUS < 0 {
			return fmt.Errorf("scenario %s: failure %d has a negative timestamp", s.Name, i)
		}
		if f.Kind == "crash" && (f.Site < 1 || f.Site > s.Sites) {
			return fmt.Errorf("scenario %s: failure %d: crash site %d out of range", s.Name, i, f.Site)
		}
		if f.Kind == "partition" && len(f.A) == 0 {
			return fmt.Errorf("scenario %s: failure %d: partition needs group a", s.Name, i)
		}
		for _, g := range [][]int{f.A, f.B} {
			for _, site := range g {
				if site < 1 || site > s.Sites {
					return fmt.Errorf("scenario %s: failure %d: site %d out of range", s.Name, i, site)
				}
			}
		}
	}
	return nil
}

// Regions returns the region count of a regions workload (0 for paper).
func (w Workload) Regions() int {
	if w.Kind != "regions" || w.RegionSize < 1 {
		return 0
	}
	return (w.Objects + w.RegionSize - 1) / w.RegionSize
}

// HomeSite is the deterministic region -> home-site map shared by the dataset
// builder and the query generator (1-based site numbers).
func (w Workload) HomeSite(region, sites int) int {
	if w.Placement == "hot" {
		hot := w.HotSites
		if hot > sites {
			hot = sites
		}
		return 1 + region%hot
	}
	return 1 + region%sites
}

// LatencyMatrix compiles the topology into an all-pairs link latency matrix
// (1-based site indices; m[u][v] is the one-way wire time from u to v). base
// is the cost model's single-hop latency, used when HopLatencyUS is zero.
func (s *Scenario) LatencyMatrix(base time.Duration) ([][]time.Duration, error) {
	n := s.Sites
	hop := base
	if s.Topology.HopLatencyUS > 0 {
		hop = time.Duration(s.Topology.HopLatencyUS) * time.Microsecond
	}
	scale := s.Topology.ScalePct
	if scale == 0 {
		scale = 100
	}

	adj, err := s.adjacency()
	if err != nil {
		return nil, err
	}
	m := make([][]time.Duration, n+1)
	for u := 1; u <= n; u++ {
		dist := bfs(adj, u, n)
		row := make([]time.Duration, n+1)
		for v := 1; v <= n; v++ {
			if u == v {
				continue
			}
			if dist[v] < 0 {
				return nil, fmt.Errorf("scenario %s: topology %q disconnects sites %d and %d",
					s.Name, s.Topology.Kind, u, v)
			}
			row[v] = time.Duration(dist[v]) * hop * time.Duration(scale) / 100
		}
		m[u] = row
	}
	return m, nil
}

// adjacency builds the overlay's undirected adjacency lists (1-based).
func (s *Scenario) adjacency() ([][]int, error) {
	n := s.Sites
	adj := make([][]int, n+1)
	link := func(u, v int) {
		if u == v {
			return
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	switch s.Topology.Kind {
	case "uniform":
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				link(u, v)
			}
		}
	case "star":
		for v := 2; v <= n; v++ {
			link(1, v)
		}
	case "ring":
		for u := 1; u <= n; u++ {
			link(u, u%n+1)
		}
	case "tree":
		arity := s.Topology.Degree
		if arity < 2 {
			arity = 2
		}
		for v := 2; v <= n; v++ {
			link((v-2)/arity+1, v)
		}
	case "hypergraph":
		k := s.Topology.Degree
		if k < 2 {
			k = 3
		}
		edges := s.Topology.Edges
		if edges < 1 {
			edges = (n + k - 2) / (k - 1)
		}
		rng := rand.New(rand.NewSource(s.Seed ^ 0x68797065)) // "hype"
		// Hyperedge e covers the consecutive block of k sites starting at
		// e*(k-1), so neighboring edges share one site: with enough edges to
		// wrap the ring, the ring-of-cliques is connected by construction.
		// One seeded random member per edge adds cross-cluster chords.
		for e := 0; e < edges; e++ {
			seen := map[int]bool{}
			members := make([]int, 0, k+1)
			for j := 0; j < k; j++ {
				v := (e*(k-1)+j)%n + 1
				if !seen[v] {
					seen[v] = true
					members = append(members, v)
				}
			}
			if v := rng.Intn(n) + 1; !seen[v] {
				members = append(members, v)
			}
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					link(members[i], members[j])
				}
			}
		}
	case "p2p":
		// Ring backbone guarantees connectivity; Degree seeded chords per
		// site make it a small-world random overlay.
		for u := 1; u <= n; u++ {
			link(u, u%n+1)
		}
		deg := s.Topology.Degree
		if deg < 1 {
			deg = 2
		}
		rng := rand.New(rand.NewSource(s.Seed ^ 0x70327020)) // "p2p "
		for u := 1; u <= n; u++ {
			for d := 0; d < deg; d++ {
				v := rng.Intn(n) + 1
				link(u, v)
			}
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown topology %q", s.Name, s.Topology.Kind)
	}
	// Dedup neighbor lists (hyperedges overlap, chords repeat).
	for u := 1; u <= n; u++ {
		sort.Ints(adj[u])
		out := adj[u][:0]
		for i, v := range adj[u] {
			if i == 0 || v != adj[u][i-1] {
				out = append(out, v)
			}
		}
		adj[u] = out
	}
	return adj, nil
}

// bfs returns hop distances from src (-1 = unreachable).
func bfs(adj [][]int, src, n int) []int {
	dist := make([]int, n+1)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// GenQueries returns the scenario's query schedule: the explicit list when
// given, otherwise Count queries generated with the scenario seed — arrival
// times from the arrival spec, origins round-robin over the sites, target
// regions from the spread spec, selection keys uniform over the key space.
func (s *Scenario) GenQueries() ([]Query, error) {
	w := s.Workload
	if len(w.Queries) > 0 {
		return w.Queries, nil
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x71726965)) // "qrie"
	regions := w.Regions()
	selSpace := w.SelSpace
	if selSpace == 0 {
		selSpace = 10
	}

	queries := make([]Query, w.Count)
	at := time.Duration(0)
	trickle := 0
	if w.Arrival == "flash" {
		trickle = w.Count / 4
	}
	for i := range queries {
		switch w.Arrival {
		case "", "batch":
			// all at 0
		case "poisson":
			at += time.Duration(rng.ExpFloat64() / w.RateQPS * float64(time.Second))
		case "flash":
			if i < trickle {
				at += time.Duration(rng.ExpFloat64() / w.RateQPS * float64(time.Second))
			} else {
				at = time.Duration(w.FlashAtUS) * time.Microsecond
			}
		}
		q := Query{AtUS: at.Microseconds(), Region: -1}

		if w.Kind == "regions" {
			switch w.Spread {
			case "", "roundrobin":
				q.Region = i % regions
			case "uniform":
				q.Region = rng.Intn(regions)
			case "hot":
				u := rng.Float64()
				q.Region = int(float64(regions) * u * u * u)
				if q.Region >= regions {
					q.Region = regions - 1
				}
			}
			// Submitting at the region's home models clients near their
			// data; every fourth query originates elsewhere so the schedule
			// always exercises remote submission too.
			q.Origin = w.HomeSite(q.Region, s.Sites)
			if i%4 == 3 {
				q.Origin = rng.Intn(s.Sites) + 1
			}
			q.Body = RegionQuery(1 + rng.Intn(selSpace))
		} else {
			q.Origin = i%s.Sites + 1
			ptr, class := w.Pointer, w.Class
			if ptr == "" {
				ptr = "Tree"
			}
			if class == "" {
				class = "Rand10"
			}
			q.Body = fmt.Sprintf(`Root [ (Pointer, %q, ?X) ^^X ]** (%s, %d, ?) -> T`,
				ptr, class, 1+rng.Intn(selSpace))
		}
		queries[i] = q
	}
	return queries, nil
}

// RegionQuery is the regions generator's query template: traverse the
// region's "Link" closure and select objects whose Sel key equals key.
func RegionQuery(key int) string {
	return fmt.Sprintf(`Root [ (Pointer, "Link", ?X) ^^X ]** (Sel, %d, ?) -> T`, key)
}

// MarshalSpec renders the scenario as compact canonical JSON (field order is
// declaration order, so equal specs render byte-identically).
func MarshalSpec(s *Scenario) ([]byte, error) { return json.Marshal(s) }

// UnmarshalSpec parses and validates a scenario spec.
func UnmarshalSpec(b []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
