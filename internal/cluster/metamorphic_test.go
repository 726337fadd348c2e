package cluster

import (
	"testing"

	"hyperfile/internal/sim"
)

// Metamorphic properties of the scenario runner: relations that must hold
// between runs of *related* specs, checked across seeds and topologies. They
// catch whole families of model bugs (a latency term dropped on one path, a
// CPU charge double-counted) that any single golden trace would miss.
//
// One caution shapes these tests: the simulated sites are serial processors,
// so the model inherits Graham's scheduling anomalies. Delaying a message —
// by raising a link latency or queueing it across a partition — can reorder
// arrivals at a serial site into a *faster* overall schedule, because CPU
// charges don't scale with the links. Empirically this shows up even for a
// single CPU-bound query (the reorder wins are a few milliseconds against a
// multi-second CPU-bound critical path). Timing monotonicity is therefore
// asserted only where it genuinely holds: latency scaling on
// network-dominated single-query scenarios (probed clean across 6 topologies
// x 12 seeds x 4 scale points). Answer *content*, by contrast, must be
// invariant under every one of these perturbations — that part is asserted
// unconditionally.

// latencyBoundSpec is a single query over small, mostly-remote regions: the
// critical path is wire latency, not site CPU, so raising every link latency
// must delay completion.
func latencyBoundSpec(seed int64, topo string, scalePct int) *sim.Scenario {
	return &sim.Scenario{
		Name:     "metamorphic-latency",
		Seed:     seed,
		Sites:    6,
		Topology: sim.Topology{Kind: topo, ScalePct: scalePct},
		Workload: sim.Workload{
			Kind: "regions", Objects: 384, RegionSize: 16,
			LocalProb: 0.2, Count: 1, Arrival: "batch", Spread: "roundrobin",
		},
	}
}

// cpuBoundSpec is the contended sweep spec: larger regions, mostly-local
// placement, several concurrent queries sharing the serial site CPUs.
func cpuBoundSpec(seed int64, count int) *sim.Scenario {
	return &sim.Scenario{
		Name:     "metamorphic-cpu",
		Seed:     seed,
		Sites:    6,
		Topology: sim.Topology{Kind: "uniform"},
		Workload: sim.Workload{
			Kind: "regions", Objects: 3072, RegionSize: 128,
			LocalProb: 0.5, Count: count, Arrival: "batch", Spread: "roundrobin",
		},
	}
}

func mustRun(t *testing.T, spec *sim.Scenario) *ScenarioRun {
	t.Helper()
	run, err := RunScenario(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return run
}

// TestMetamorphicLatencySlowdownNeverFaster raises every link latency on a
// network-dominated single query and checks completion never gets earlier in
// virtual time — and that latency never changes the answer, only when it
// arrives.
func TestMetamorphicLatencySlowdownNeverFaster(t *testing.T) {
	for _, topo := range []string{"uniform", "star", "ring", "tree", "hypergraph", "p2p"} {
		for _, seed := range []int64{1, 2, 3, 4} {
			prev := mustRun(t, latencyBoundSpec(seed, topo, 100))
			prevPct := 100
			for _, pct := range []int{150, 250, 400} {
				run := mustRun(t, latencyBoundSpec(seed, topo, pct))
				if run.Final < prev.Final {
					t.Errorf("%s seed %d: scale %d%% finished at %v, earlier than scale %d%%'s %v",
						topo, seed, pct, run.Final, prevPct, prev.Final)
				}
				if run.Queries[0].Digest != prev.Queries[0].Digest {
					t.Errorf("%s seed %d: scale %d%% changed the answer digest %s -> %s",
						topo, seed, pct, prev.Queries[0].Digest, run.Queries[0].Digest)
				}
				prev, prevPct = run, pct
			}
		}
	}
}

// TestMetamorphicHealBeforeQuiescence cuts the cluster in half mid-run and
// heals it before the workload quiesces: the reliable transport queues and
// flushes the cut traffic, so every query must still complete whole, with an
// answer byte-identical to the failure-free run's. Completion *times* may
// legitimately move in either direction — the heal flushes queued messages
// in a burst, and the reordered arrivals can schedule better or worse on the
// serial site CPUs — so only the answers are pinned.
func TestMetamorphicHealBeforeQuiescence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		clean := mustRun(t, cpuBoundSpec(seed, 4))
		spec := cpuBoundSpec(seed, 4)
		spec.Failures = []sim.Failure{
			{AtUS: 100_000, Kind: "partition", A: []int{1, 2, 3}},
			{AtUS: 900_000, Kind: "heal"},
		}
		run := mustRun(t, spec)
		if len(run.Queries) != len(clean.Queries) {
			t.Fatalf("seed %d: %d queries vs %d clean", seed, len(run.Queries), len(clean.Queries))
		}
		for i, q := range run.Queries {
			if q.Partial || q.Lost || q.Rejected {
				t.Errorf("seed %d query %d: degraded outcome (partial=%v lost=%v rejected=%v) despite heal",
					seed, i, q.Partial, q.Lost, q.Rejected)
			}
			if q.Digest != clean.Queries[i].Digest {
				t.Errorf("seed %d query %d: healed digest %s != clean digest %s",
					seed, i, q.Digest, clean.Queries[i].Digest)
			}
		}
	}
}
