package sim

import (
	"strings"
	"testing"
	"time"
)

func validSpec() *Scenario {
	return &Scenario{
		Name:     "t",
		Seed:     1,
		Sites:    4,
		Topology: Topology{Kind: "uniform"},
		Workload: Workload{
			Kind: "regions", Objects: 400, RegionSize: 50,
			Count: 2, Arrival: "batch", Spread: "roundrobin",
		},
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"zero sites", func(s *Scenario) { s.Sites = 0 }, "sites"},
		{"bad topology", func(s *Scenario) { s.Topology.Kind = "mesh" }, "topology"},
		{"negative scale", func(s *Scenario) { s.Topology.ScalePct = -1 }, "negative latency"},
		{"bad workload", func(s *Scenario) { s.Workload.Kind = "zipf" }, "workload"},
		{"zero objects", func(s *Scenario) { s.Workload.Objects = 0 }, "objects"},
		{"bad arrival", func(s *Scenario) { s.Workload.Arrival = "burst" }, "arrival"},
		{"bad spread", func(s *Scenario) { s.Workload.Spread = "zip" }, "spread"},
		{"bad placement", func(s *Scenario) { s.Workload.Placement = "edge" }, "placement"},
		{"regions without size", func(s *Scenario) { s.Workload.RegionSize = 0 }, "region_size"},
		{"hot without hot_sites", func(s *Scenario) { s.Workload.Placement = "hot" }, "hot_sites"},
		{"no queries", func(s *Scenario) { s.Workload.Count = 0 }, "no queries"},
		{"poisson without rate", func(s *Scenario) { s.Workload.Arrival = "poisson" }, "rate_qps"},
		{"query origin out of range", func(s *Scenario) {
			s.Workload.Queries = []Query{{Origin: 9, Body: "x"}}
		}, "origin"},
		{"query negative time", func(s *Scenario) {
			s.Workload.Queries = []Query{{Origin: 1, Body: "x", AtUS: -1}}
		}, "at_us"},
		{"query empty body", func(s *Scenario) {
			s.Workload.Queries = []Query{{Origin: 1}}
		}, "body"},
		{"bad failure kind", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "flood"}}
		}, "unknown kind"},
		{"failure negative time", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "heal", AtUS: -5}}
		}, "negative timestamp"},
		{"failure negative detect", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "crash", Site: 1, DetectUS: -1}}
		}, "negative timestamp"},
		{"crash site out of range", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "crash", Site: 5}}
		}, "out of range"},
		{"partition without group", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "partition"}}
		}, "group a"},
		{"partition site out of range", func(s *Scenario) {
			s.Failures = []Failure{{Kind: "partition", A: []int{1, 7}}}
		}, "out of range"},
		{"negative max inflight", func(s *Scenario) { s.Exec.MaxInflight = -1 }, "-max-inflight -1 is negative"},
		{"negative admission queue", func(s *Scenario) {
			s.Exec.MaxInflight, s.Exec.AdmissionQueue = 2, -3
		}, "-admission-queue -3 is negative"},
		{"queue without bound", func(s *Scenario) { s.Exec.AdmissionQueue = 3 }, "needs -max-inflight"},
		{"negative deadline", func(s *Scenario) { s.Exec.QueryDeadline = -time.Second }, "-query-deadline -1s is negative"},
		{"negative heartbeat", func(s *Scenario) { s.Exec.HeartbeatInterval = -time.Second }, "-heartbeat -1s is negative"},
		{"suspect without heartbeat", func(s *Scenario) { s.Exec.SuspectAfter = time.Second }, "needs -heartbeat"},
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsExec: the range checks refuse only what is out of
// range; a negative DerefBatch is the paper's protocol, not an error.
func TestValidateAcceptsExec(t *testing.T) {
	for _, ok := range []Exec{
		{DerefBatch: -1},
		{MaxInflight: 2, AdmissionQueue: 3},
		{HeartbeatInterval: time.Second, SuspectAfter: 4 * time.Second},
	} {
		s := validSpec()
		s.Exec = ok
		if err := s.Validate(); err != nil {
			t.Errorf("exec %+v: %v", ok, err)
		}
	}
}

// matrix compiles a topology over n sites with default hop latency (10ms).
func matrix(t *testing.T, n int, topo Topology, seed int64) [][]time.Duration {
	t.Helper()
	s := validSpec()
	s.Sites = n
	s.Seed = seed
	s.Topology = topo
	m, err := s.LatencyMatrix(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("%s: %v", topo.Kind, err)
	}
	return m
}

func TestLatencyMatrixShapes(t *testing.T) {
	hop := 10 * time.Millisecond

	// Uniform: every pair one hop.
	m := matrix(t, 5, Topology{Kind: "uniform"}, 1)
	for u := 1; u <= 5; u++ {
		for v := 1; v <= 5; v++ {
			want := hop
			if u == v {
				want = 0
			}
			if m[u][v] != want {
				t.Errorf("uniform m[%d][%d] = %v, want %v", u, v, m[u][v], want)
			}
		}
	}

	// Star: hub one hop from everyone, leaves two hops apart.
	m = matrix(t, 5, Topology{Kind: "star"}, 1)
	if m[1][4] != hop || m[4][1] != hop {
		t.Errorf("star hub link = %v/%v, want %v", m[1][4], m[4][1], hop)
	}
	if m[2][5] != 2*hop {
		t.Errorf("star leaf-leaf = %v, want %v", m[2][5], 2*hop)
	}

	// Ring: shortest way around.
	m = matrix(t, 6, Topology{Kind: "ring"}, 1)
	if m[1][2] != hop || m[1][4] != 3*hop || m[1][6] != hop {
		t.Errorf("ring distances from 1: %v %v %v, want 1/3/1 hops", m[1][2], m[1][4], m[1][6])
	}

	// Tree (binary): root 1, children 2 and 3; 4 hangs off 2.
	m = matrix(t, 7, Topology{Kind: "tree", Degree: 2}, 1)
	if m[1][2] != hop || m[2][3] != 2*hop || m[1][4] != 2*hop || m[4][6] != 4*hop {
		t.Errorf("tree distances: %v %v %v %v, want 1/2/2/4 hops", m[1][2], m[2][3], m[1][4], m[4][6])
	}
}

func TestLatencyMatrixScaleAndHopOverride(t *testing.T) {
	m := matrix(t, 4, Topology{Kind: "uniform", HopLatencyUS: 2000, ScalePct: 150}, 1)
	if want := 3 * time.Millisecond; m[1][2] != want {
		t.Errorf("scaled hop = %v, want %v", m[1][2], want)
	}
}

func TestLatencyMatrixSymmetricAndConnected(t *testing.T) {
	topos := []Topology{
		{Kind: "uniform"}, {Kind: "star"}, {Kind: "ring"},
		{Kind: "tree", Degree: 3}, {Kind: "hypergraph", Degree: 4, Edges: 9},
		{Kind: "hypergraph"}, {Kind: "p2p", Degree: 2}, {Kind: "p2p"},
	}
	for _, topo := range topos {
		for _, seed := range []int64{1, 42, 404} {
			m := matrix(t, 24, topo, seed)
			for u := 1; u <= 24; u++ {
				for v := u + 1; v <= 24; v++ {
					if m[u][v] != m[v][u] {
						t.Fatalf("%s seed %d: asymmetric m[%d][%d]=%v m[%d][%d]=%v",
							topo.Kind, seed, u, v, m[u][v], v, u, m[v][u])
					}
					if m[u][v] <= 0 {
						t.Fatalf("%s seed %d: sites %d,%d not connected", topo.Kind, seed, u, v)
					}
				}
			}
		}
	}
}

func TestLatencyMatrixReportsDisconnection(t *testing.T) {
	// One 3-site hyperedge (plus its one random chord) cannot span 10 sites.
	s := validSpec()
	s.Sites = 10
	s.Topology = Topology{Kind: "hypergraph", Degree: 3, Edges: 1}
	if _, err := s.LatencyMatrix(10 * time.Millisecond); err == nil {
		t.Fatal("LatencyMatrix accepted a disconnected overlay")
	} else if !strings.Contains(err.Error(), "disconnect") {
		t.Errorf("error %q does not mention disconnection", err)
	}
}

func TestHomeSiteMapping(t *testing.T) {
	w := Workload{}
	if got := w.HomeSite(7, 4); got != 4 {
		t.Errorf("spread HomeSite(7, 4) = %d, want 4", got)
	}
	hot := Workload{Placement: "hot", HotSites: 2}
	for region := 0; region < 8; region++ {
		if got := hot.HomeSite(region, 16); got != 1+region%2 {
			t.Errorf("hot HomeSite(%d) = %d, want %d", region, got, 1+region%2)
		}
	}
	// HotSites above the cluster size clamps.
	wide := Workload{Placement: "hot", HotSites: 9}
	if got := wide.HomeSite(5, 3); got < 1 || got > 3 {
		t.Errorf("clamped hot HomeSite = %d, out of range", got)
	}
}

func TestRegionsCount(t *testing.T) {
	w := Workload{Kind: "regions", Objects: 1001, RegionSize: 100}
	if got := w.Regions(); got != 11 {
		t.Errorf("Regions() = %d, want 11", got)
	}
	if got := (Workload{Kind: "paper", Objects: 90}).Regions(); got != 0 {
		t.Errorf("paper Regions() = %d, want 0", got)
	}
}

func TestGenQueriesDeterministicAndScheduled(t *testing.T) {
	s := validSpec()
	s.Workload.Count = 16
	s.Workload.Arrival = "poisson"
	s.Workload.RateQPS = 50
	q1, err := s.GenQueries()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.GenQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(q1) != 16 {
		t.Fatalf("generated %d queries, want 16", len(q1))
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("query %d differs between runs: %+v vs %+v", i, q1[i], q2[i])
		}
		if i > 0 && q1[i].AtUS < q1[i-1].AtUS {
			t.Errorf("poisson arrivals not monotone at %d", i)
		}
		if q1[i].Origin < 1 || q1[i].Origin > s.Sites {
			t.Errorf("query %d origin %d out of range", i, q1[i].Origin)
		}
		if q1[i].Region < 0 || q1[i].Region >= s.Workload.Regions() {
			t.Errorf("query %d region %d out of range", i, q1[i].Region)
		}
		if q1[i].Body == "" {
			t.Errorf("query %d has no body", i)
		}
	}
}

func TestGenQueriesArrivalKinds(t *testing.T) {
	s := validSpec()
	s.Workload.Count = 8
	s.Workload.Arrival = "batch"
	qs, err := s.GenQueries()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.AtUS != 0 {
			t.Errorf("batch query %d at %d, want 0", i, q.AtUS)
		}
	}

	s.Workload.Arrival = "flash"
	s.Workload.RateQPS = 10
	s.Workload.FlashAtUS = 700_000
	qs, err = s.GenQueries()
	if err != nil {
		t.Fatal(err)
	}
	flash := 0
	for _, q := range qs {
		if q.AtUS == 700_000 {
			flash++
		}
	}
	// A quarter trickle in; the remaining three quarters land together.
	if flash != 6 {
		t.Errorf("%d queries at the flash instant, want 6 of 8", flash)
	}
}

func TestGenQueriesExplicitSchedulePassesThrough(t *testing.T) {
	s := validSpec()
	want := []Query{{AtUS: 5, Origin: 2, Body: "b", Region: 3}}
	s.Workload.Queries = want
	got, err := s.GenQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("explicit schedule altered: %+v", got)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Comment = "round trip"
	s.Topology = Topology{Kind: "hypergraph", Degree: 4, Edges: 9, ScalePct: 150, HopLatencyUS: 2500}
	s.Workload.Placement = "hot"
	s.Workload.HotSites = 2
	s.Failures = []Failure{
		{AtUS: 100, Kind: "partition", A: []int{1, 2}},
		{AtUS: 900, Kind: "heal"},
		{AtUS: 50, Kind: "crash", Site: 3, DetectUS: 200},
	}
	s.Exec = Exec{DerefBatch: 8, MaxInflight: 8, AdmissionQueue: 4}
	s.TraceMessages = true

	b, err := MarshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every exec key, spelled and ordered as spec files and goldens have it.
	const exec = `"exec":{"deref_batch":8,"max_inflight":8,"admission_queue":4}`
	if !strings.Contains(string(b), exec) {
		t.Errorf("exec encodes differently:\n  got  %s\n  want %s", b, exec)
	}
	if strings.Contains(string(b), "\n") {
		t.Error("MarshalSpec output is not a single line (traces embed it on one)")
	}
	got, err := UnmarshalSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := MarshalSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("round trip not stable:\n  %s\n  %s", b, b2)
	}
	// A spec file setting every exec key decodes and re-encodes to its own
	// bytes, so the keys' names and order stay what files and goldens have.
	in := `{"name":"file","seed":7,"sites":3,"topology":{"kind":"ring"},` +
		`"workload":{"kind":"paper","objects":90,"count":1,"arrival":"batch"},` + exec + `}`
	got, err = UnmarshalSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Exec != s.Exec {
		t.Errorf("decoded exec = %+v, want %+v", got.Exec, s.Exec)
	}
	if out, err := MarshalSpec(got); err != nil || string(out) != in {
		t.Errorf("re-encoded spec differs from its input (err %v):\n  got  %s\n  want %s", err, out, in)
	}
}

// TestSpecIgnoresRetiredExecKeys: a spec written when exec still named
// workers, fair_quantum, plan_cache, index or result_batch parses, and no
// such key changes anything.
func TestSpecIgnoresRetiredExecKeys(t *testing.T) {
	s := validSpec()
	s.Exec = Exec{DerefBatch: 8}
	b, err := MarshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(b), `"deref_batch":8`, `"workers":4,"deref_batch":8,"fair_quantum":2,"plan_cache":4,"index":true,"result_batch":8`, 1)
	if old == string(b) {
		t.Fatalf("spec has no exec.deref_batch key to extend: %s", b)
	}
	got, err := UnmarshalSpec([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	if got.Exec != s.Exec {
		t.Errorf("exec = %+v, want %+v", got.Exec, s.Exec)
	}
}

func TestUnmarshalSpecValidates(t *testing.T) {
	if _, err := UnmarshalSpec([]byte(`{"name":"x","sites":0}`)); err == nil {
		t.Error("UnmarshalSpec accepted an invalid spec")
	}
	if _, err := UnmarshalSpec([]byte(`{not json`)); err == nil {
		t.Error("UnmarshalSpec accepted malformed JSON")
	}
	// The spec file a user hands hfsim -run, with out-of-range exec knobs.
	bad := `{"name":"x","seed":1,"sites":9,"topology":{"kind":"ring"},` +
		`"workload":{"kind":"regions","objects":900,"region_size":100,"count":2,"arrival":"batch"},` +
		`"exec":{"max_inflight":-1,"admission_queue":3}}`
	if _, err := UnmarshalSpec([]byte(bad)); err == nil || !strings.Contains(err.Error(), "exec") {
		t.Errorf("UnmarshalSpec(bad exec) = %v, want an exec error", err)
	}
}
