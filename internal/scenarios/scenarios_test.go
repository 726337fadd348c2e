package scenarios

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/workload"
)

// updateGolden regenerates every committed golden trace from the current
// simulator:
//
//	go test ./internal/scenarios -run TestCorpusGolden -update-golden
//
// Inspect the diff before committing — a changed golden means the simulator's
// virtual-time behavior changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite corpus golden traces")

func TestCorpusHasRequiredScenarios(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("corpus has %d scenarios, want at least 8: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, required := range []string{
		"hotspot-skew", "flash-crowd", "cascading-partition", "hypergraph-overlay",
		"heal-under-load", "metro-scale",
	} {
		if !seen[required] {
			t.Errorf("corpus is missing %q", required)
		}
	}
}

func TestCorpusSpecsValidate(t *testing.T) {
	for _, name := range Names() {
		spec, err := Load(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Name != name {
			t.Errorf("%s: spec names itself %q; file and spec names must agree", name, spec.Name)
		}
	}
}

// TestCorpusGolden replays every corpus scenario from the spec embedded in
// its committed golden trace and requires a byte-identical re-rendering.
// With -update-golden it rewrites the goldens from the current simulator
// instead of comparing.
func TestCorpusGolden(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if !*updateGolden {
				// Replay from the golden trace itself: the embedded spec,
				// not the .json, drives the run, so a recorded trace alone
				// reproduces the simulation.
				golden, err := Golden(name)
				if err != nil {
					t.Fatal(err)
				}
				embedded, _, err := sim.ParseTrace(golden)
				if err != nil {
					t.Fatal(err)
				}
				wantSpec, err := sim.MarshalSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				gotSpec, err := sim.MarshalSpec(embedded)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantSpec, gotSpec) {
					t.Fatalf("embedded spec drifted from %s.json:\n  json:  %s\n  trace: %s",
						name, wantSpec, gotSpec)
				}
				run, err := cluster.RunScenario(embedded)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.Trace.Render()
				if err != nil {
					t.Fatal(err)
				}
				if d := sim.DiffTraces(golden, got); d != "" {
					t.Errorf("trace diverges from golden (simulator behavior changed; "+
						"regenerate with -update-golden if intended):\n%s", d)
				}
				return
			}
			run, err := cluster.RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			rendered, err := run.Trace.Render()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(GoldenPath(name), rendered, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s: %d events, final %v, %d msgs, wall %v",
				GoldenPath(name), strings.Count(string(rendered), "\nev "),
				run.Final, run.Messages, run.Wall.Round(time.Millisecond))
		})
	}
}

// TestBoundedTreeMatchesOneSite checks the bounded-tree scenario's answers
// against the same graph colocated on one site. On one site no message can
// overtake another, so a bounded iterator's answer there is the reference
// its distributed runs must equal under any link latencies.
func TestBoundedTreeMatchesOneSite(t *testing.T) {
	spec, err := Load("bounded-tree")
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Generation is deterministic: the scenario's dataset is rebuilt here,
	// and once more with every object on site 1.
	ws := workload.Spec{N: spec.Workload.Objects, Machines: spec.Sites, StructureMachines: spec.Sites, Seed: spec.Seed}
	spread, err := workload.Build(cluster.NewSim(spec.Sites, cluster.Options{}), ws)
	if err != nil {
		t.Fatal(err)
	}
	ws.Machines = 1
	one := cluster.NewSim(1, cluster.Options{Cost: sim.Free()})
	local, err := workload.Build(one, ws)
	if err != nil {
		t.Fatal(err)
	}
	logical := make(map[object.ID]int, len(local.IDs))
	for i, id := range local.IDs {
		logical[id] = i
	}
	for i, q := range run.Queries {
		if !strings.Contains(q.Spec.Body, "]*") || strings.Contains(q.Spec.Body, "]**") {
			t.Errorf("query %d is not bounded: %s", i, q.Spec.Body)
		}
		res, _, err := one.Exec(1, q.Spec.Body, []object.ID{local.Root})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]object.ID, len(res.IDs))
		for j, id := range res.IDs {
			want[j] = spread.IDs[logical[id]]
		}
		slices.SortFunc(want, object.ID.Compare)
		if q.Partial || q.Results != len(want) || q.Digest != cluster.IDsDigest(want) {
			t.Errorf("query %d (%s): %d results digest %s partial %v, one site gives %d digest %s",
				i, q.Spec.Body, q.Results, q.Digest, q.Partial, len(want), cluster.IDsDigest(want))
		}
	}
}

// TestMetroScaleWallClock is the scale acceptance gate: 200 sites and a
// million objects must simulate in well under a minute.
func TestMetroScaleWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := Load("metro-scale")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sites < 200 || spec.Workload.Objects < 1_000_000 {
		t.Fatalf("metro-scale shrank: %d sites, %d objects", spec.Sites, spec.Workload.Objects)
	}
	run, err := cluster.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if run.Wall > 60*time.Second {
		t.Errorf("metro-scale took %v wall, want < 60s", run.Wall)
	}
	for i, q := range run.Queries {
		if q.Lost || q.Rejected || q.Partial {
			t.Errorf("query %d: lost=%v rejected=%v partial=%v", i, q.Lost, q.Rejected, q.Partial)
		}
	}
	t.Logf("metro-scale: final %v virtual, %d msgs, wall %v",
		run.Final, run.Messages, run.Wall.Round(time.Millisecond))
}

// TestCorpusOutcomes pins the failure scenarios' qualitative shape so the
// goldens can't silently degenerate: crash-partial must actually lose or
// degrade some queries, the partition scenarios must not.
func TestCorpusOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := Load("crash-partial")
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, q := range run.Queries {
		if q.Lost || q.Partial {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("crash-partial: every query completed cleanly; the crash changed nothing")
	}

	for _, name := range []string{"cascading-partition", "heal-under-load"} {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := cluster.RunScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range run.Queries {
			if q.Lost || q.Rejected || q.Partial {
				t.Errorf("%s query %d: lost=%v rejected=%v partial=%v (partitions heal, answers must be whole)",
					name, i, q.Lost, q.Rejected, q.Partial)
			}
		}
	}
}
