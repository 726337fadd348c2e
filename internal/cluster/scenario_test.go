package cluster

import (
	"strings"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/workload"
)

// paperScenario is a small protocol-faithful spec the runner tests share.
func paperScenario() *sim.Scenario {
	return &sim.Scenario{
		Name:     "test-paper",
		Seed:     7,
		Sites:    3,
		Topology: sim.Topology{Kind: "uniform"},
		Workload: sim.Workload{Kind: "paper", Objects: 90, Count: 4},
	}
}

// regionsScenario is a small scale-generator spec with explicit queries so
// tests know exactly which region/key each answer is for.
func regionsScenario() *sim.Scenario {
	return &sim.Scenario{
		Name:     "test-regions",
		Seed:     11,
		Sites:    4,
		Topology: sim.Topology{Kind: "ring"},
		Workload: sim.Workload{
			Kind: "regions", Objects: 400, RegionSize: 50, LocalProb: 0.8,
			Placement: "spread",
			Queries: []sim.Query{
				{AtUS: 0, Origin: 1, Body: sim.RegionQuery(3), Region: 0},
				{AtUS: 1000, Origin: 2, Body: sim.RegionQuery(7), Region: 5},
				{AtUS: 2000, Origin: 4, Body: sim.RegionQuery(1), Region: 7},
			},
		},
	}
}

func TestScenarioPaperRunCompletes(t *testing.T) {
	run, err := RunScenario(paperScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Queries) != 4 {
		t.Fatalf("queries = %d, want 4", len(run.Queries))
	}
	for i, q := range run.Queries {
		if q.Rejected || q.Lost || q.Partial {
			t.Errorf("query %d: rejected=%v lost=%v partial=%v", i, q.Rejected, q.Lost, q.Partial)
		}
		if q.Results == 0 {
			t.Errorf("query %d returned nothing", i)
		}
		if q.Completed <= q.Submitted {
			t.Errorf("query %d completed at %v, submitted at %v", i, q.Completed, q.Submitted)
		}
	}
	if run.Messages == 0 {
		t.Error("no inter-site messages counted")
	}
}

// TestScenarioRegionsAnswersMatchOracle rebuilds the same dataset out of band
// and checks every scenario answer against the dataset's own member scan.
func TestScenarioRegionsAnswersMatchOracle(t *testing.T) {
	spec := regionsScenario()
	run, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic generation: an identical cluster+spec yields identical
	// ids, so the oracle dataset matches the one the runner built internally.
	c := NewSim(spec.Sites, Options{Cost: sim.Paper()})
	rd, err := workload.BuildRegions(c, workload.RegionSpec{
		Objects: spec.Workload.Objects, Sites: spec.Sites,
		RegionSize: spec.Workload.RegionSize, LocalProb: spec.Workload.LocalProb,
		HomeSite: func(r int) int { return spec.Workload.HomeSite(r, spec.Sites) },
		Seed:     spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int{3, 7, 1}
	for i, q := range run.Queries {
		want := rd.ExpectedIDs(q.Spec.Region, keys[i])
		if q.Results != len(want) {
			t.Errorf("query %d: %d results, oracle says %d", i, q.Results, len(want))
		}
		if q.Digest != IDsDigest(want) {
			t.Errorf("query %d: digest %s, oracle digest %s", i, q.Digest, IDsDigest(want))
		}
	}
}

func TestScenarioTraceDeterministic(t *testing.T) {
	for _, mk := range []func() *sim.Scenario{paperScenario, regionsScenario} {
		spec := mk()
		r1, err := RunScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunScenario(mk())
		if err != nil {
			t.Fatal(err)
		}
		b1, err := r1.Trace.Render()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2.Trace.Render()
		if err != nil {
			t.Fatal(err)
		}
		if d := sim.DiffTraces(b1, b2); d != "" {
			t.Errorf("%s: traces diverge:\n%s", spec.Name, d)
		}
	}
}

// TestScenarioTraceReplays round-trips a run through the rendered trace: the
// spec embedded in the trace re-simulates to the same bytes.
func TestScenarioTraceReplays(t *testing.T) {
	run, err := RunScenario(regionsScenario())
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := run.Trace.Render()
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := sim.ParseTrace(rendered)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := replay.Trace.Render()
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.DiffTraces(rendered, again); d != "" {
		t.Errorf("replay diverges:\n%s", d)
	}
}

// TestScenarioCrashLosesOriginQueries crashes a site before its query runs:
// the query is lost (no answer can reach its client), other queries complete,
// and the run drains without wedging.
func TestScenarioCrashLosesOriginQueries(t *testing.T) {
	spec := regionsScenario()
	spec.Name = "test-crash"
	// Site 2 dies before its query (at 1000us) is submitted.
	spec.Failures = []sim.Failure{{AtUS: 500, Kind: "crash", Site: 2}}
	run, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	var lost, completed int
	for _, q := range run.Queries {
		switch {
		case q.Lost:
			lost++
			if q.Spec.Origin != 2 {
				t.Errorf("query from site %d lost; only site 2 crashed", q.Spec.Origin)
			}
		default:
			completed++
		}
	}
	if lost != 1 {
		t.Errorf("lost = %d, want exactly the site-2 query", lost)
	}
	if completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}
	rendered, err := run.Trace.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rendered), "crash site=2") {
		t.Error("trace does not record the crash event")
	}
}

// TestScenarioCrashPartialAnswer crashes a site holding some of a region's
// objects mid-traversal horizon: the surviving origin answers partially and
// names the unreachable site.
func TestScenarioCrashPartialAnswer(t *testing.T) {
	spec := &sim.Scenario{
		Name:     "test-crash-partial",
		Seed:     13,
		Sites:    3,
		Topology: sim.Topology{Kind: "uniform"},
		Workload: sim.Workload{
			// LocalProb 0.5 scatters half of region 0 off its home site 1, so
			// crashing site 3 strands objects mid-closure.
			Kind: "regions", Objects: 120, RegionSize: 120, LocalProb: 0.5,
			Queries: []sim.Query{{AtUS: 5_000_000, Origin: 1, Body: sim.RegionQuery(2), Region: 0}},
		},
		Failures: []sim.Failure{{AtUS: 0, Kind: "crash", Site: 3}},
	}
	run, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	q := run.Queries[0]
	if q.Lost || q.Rejected {
		t.Fatalf("query lost=%v rejected=%v, want a partial answer", q.Lost, q.Rejected)
	}
	if !q.Partial {
		t.Error("answer not marked partial despite a crashed member site")
	}
	found := false
	for _, s := range q.Unreachable {
		if s == object.SiteID(3) {
			found = true
		}
	}
	if !found {
		t.Errorf("unreachable = %v, want site 3 listed", q.Unreachable)
	}
}

// TestScenarioHealFlushesPartition partitions the cluster before the query
// and heals mid-flight: the answer must be complete (the reliable transport
// queues across the cut) and byte-identical to the unpartitioned run.
func TestScenarioHealFlushesPartition(t *testing.T) {
	base := regionsScenario()
	clean, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := regionsScenario()
	faulty.Name = "test-heal"
	faulty.Failures = []sim.Failure{
		{AtUS: 0, Kind: "partition", A: []int{1, 2}},
		{AtUS: 800_000, Kind: "heal"},
	}
	healed, err := RunScenario(faulty)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Queries {
		cq, hq := clean.Queries[i], healed.Queries[i]
		if hq.Partial || hq.Lost || hq.Rejected {
			t.Errorf("query %d under heal: partial=%v lost=%v rejected=%v", i, hq.Partial, hq.Lost, hq.Rejected)
		}
		if hq.Digest != cq.Digest {
			t.Errorf("query %d: healed digest %s != clean digest %s", i, hq.Digest, cq.Digest)
		}
		if hq.Completed < cq.Completed {
			t.Errorf("query %d finished earlier under partition: %v < %v", i, hq.Completed, cq.Completed)
		}
	}
}

// TestScenarioStarSlowerThanUniform: on a star overlay, leaf-to-leaf messages
// take two hops, so a single leaf-origin query finishes no earlier than on
// the paper's one-hop Ethernet. (Single query deliberately: with concurrent
// queries contending for serial site CPUs, slower links can reorder arrivals
// into a *faster* overall schedule — a Graham scheduling anomaly — so
// latency monotonicity only holds per query in isolation.)
func TestScenarioStarSlowerThanUniform(t *testing.T) {
	mk := func(name, kind string) *sim.Scenario {
		return &sim.Scenario{
			Name: name, Seed: 11, Sites: 4,
			Topology: sim.Topology{Kind: kind},
			Workload: sim.Workload{
				Kind: "regions", Objects: 400, RegionSize: 50, LocalProb: 0.8,
				Placement: "spread",
				// Region 7's home is site 4; the origin leaf 2 must cross
				// the hub both ways.
				Queries: []sim.Query{{AtUS: 0, Origin: 2, Body: sim.RegionQuery(7), Region: 7}},
			},
		}
	}
	uniform := mk("test-uniform", "uniform")
	star := mk("test-star", "star")
	ru, err := RunScenario(uniform)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunScenario(star)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Final < ru.Final {
		t.Errorf("star run finished at %v, before uniform %v", rs.Final, ru.Final)
	}
	for i := range ru.Queries {
		if rs.Queries[i].Digest != ru.Queries[i].Digest {
			t.Errorf("query %d: topology changed the answer", i)
		}
	}
}

func TestScenarioRejectsBadSpec(t *testing.T) {
	bad := paperScenario()
	bad.Topology.Kind = "moebius"
	if _, err := RunScenario(bad); err == nil {
		t.Error("expected a validation error for an unknown topology")
	}
	lone := paperScenario()
	lone.Workload.Count = 0
	if _, err := RunScenario(lone); err == nil {
		t.Error("expected a validation error for an empty schedule")
	}
}

// TestScenarioMessageTrace: TraceMessages records per-message lines with the
// wire kind rendered.
func TestScenarioMessageTrace(t *testing.T) {
	spec := paperScenario()
	spec.Name = "test-msgs"
	spec.TraceMessages = true
	spec.Workload.Count = 1
	run, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := run.Trace.Render()
	if err != nil {
		t.Fatal(err)
	}
	n := strings.Count(string(rendered), "\nev ")
	msgLines := strings.Count(string(rendered), " msg from=")
	if msgLines == 0 {
		t.Fatalf("no message lines in trace (%d events)", n)
	}
	// Messages() counts every send, including the final Complete addressed
	// to the pseudo client; the message trace records inter-site links only.
	if want := run.Messages - 1; msgLines != want {
		t.Errorf("trace has %d message lines, want %d (cluster counted %d sends incl. the client completion)",
			msgLines, want, run.Messages)
	}
}

// TestScheduleQueryMatchesExec: a scenario-scheduled query at t=0 observes
// the same virtual completion time as the Exec path on an identical cluster —
// the decomposed stepping primitives charge identical costs.
func TestScheduleQueryMatchesExec(t *testing.T) {
	mk := func() (*SimCluster, *workload.Dataset) {
		c := NewSim(3, Options{Cost: sim.Paper()})
		d, err := workload.Build(c, workload.Spec{N: 90, Machines: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	c1, d1 := mk()
	body := workload.ClosureQuery("Tree", "Rand10", 4)
	res, rt, err := c1.Exec(1, body, []object.ID{d1.Root})
	if err != nil {
		t.Fatal(err)
	}

	c2, d2 := mk()
	qid := c2.ScheduleQuery(0, 1, body, []object.ID{d2.Root})
	c2.loop.Run()
	if c2.err != nil {
		t.Fatal(c2.err)
	}
	cm := c2.completes[qid]
	if cm == nil {
		t.Fatal("scheduled query did not complete")
	}
	res2, err := fromComplete(cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.IDs) != len(res.IDs) {
		t.Fatalf("results differ: %d vs %d", len(res2.IDs), len(res.IDs))
	}
	for i := range res.IDs {
		if res.IDs[i] != res2.IDs[i] {
			t.Fatalf("result id %d differs", i)
		}
	}
	if got := c2.completedAt[qid]; got != rt {
		t.Errorf("scheduled completion %v != Exec response time %v", got, rt)
	}
}

// TestScenarioLatencyScaleMonotonic is the in-package version of the
// metamorphic latency property on one pair: scaling every link by 150% never
// finishes the run earlier.
func TestScenarioLatencyScaleMonotonic(t *testing.T) {
	fast := regionsScenario()
	slow := regionsScenario()
	slow.Name = "test-slow"
	slow.Topology.ScalePct = 150
	rf, err := RunScenario(fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunScenario(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Final < rf.Final {
		t.Errorf("150%% latency finished at %v, before 100%% at %v", rs.Final, rf.Final)
	}
}
