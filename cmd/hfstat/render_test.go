package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRenderGolden pins hfstat's human-readable report for a fixed snapshot.
// Run with -update after an intentional format change.
func TestRenderGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("site_derefs_sent").Add(12)
	reg.Counter("transport_frames_retransmitted").Add(4)
	// frames per write = 40/9, acks per frame = 7/38: the two batching
	// ratios are read off adjacent counters.
	reg.Counter("transport_frames_sent").Add(40)
	reg.Counter("transport_writes").Add(9)
	reg.Counter("transport_frames_received").Add(38)
	reg.Counter("transport_acks_sent").Add(7)
	reg.Counter("termination_weight_splits").Add(7)
	reg.Gauge("site_live_contexts").Set(1)
	for _, v := range []uint64{3, 9, 15, 200} {
		reg.Histogram("site_step_us").Observe(v)
	}
	snap := server.DebugSnapshot{
		Site:    "s1",
		Metrics: reg.Snapshot(),
		Traces: []site.TraceEntry{
			{
				QID:      wire.QueryID{Origin: 1, Seq: 4},
				Body:     `S (keyword, "cold", ?) -> T`,
				Spans:    []site.Span{{Site: 1, Seq: 1, Hop: 0, Filter: 0, In: 1, Out: 0, DurationUS: 3}},
				Duration: 800 * time.Microsecond,
			},
			{
				QID:  wire.QueryID{Origin: 1, Seq: 5},
				Body: `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`,
				Spans: []site.Span{
					{Site: 1, Seq: 1, Hop: 0, Filter: 0, In: 6, Out: 3, DurationUS: 21},
					{Site: 2, Seq: 1, Hop: 1, Filter: 0, In: 5, Out: 2, DurationUS: 17},
					{Site: 3, Seq: 1, Hop: 2, Filter: 1, In: 2, Out: 2, DurationUS: 9},
				},
				Partial:  true,
				Duration: 2300 * time.Microsecond,
			},
		},
	}
	var b strings.Builder
	render(&b, snap, 1) // cap at 1: only the most recent trace renders
	got := b.String()

	golden := filepath.Join("testdata", "render.golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("render output changed.\n--- got ---\n%s\n--- want ---\n%s\nRun with -update if intentional.", got, want)
	}
	// The capped report must show the partial closure trace, not the older one.
	if !strings.Contains(got, "traces (1 of 2):") || !strings.Contains(got, "q5@s1  partial") {
		t.Errorf("unexpected trace selection:\n%s", got)
	}
}

// TestRenderMergedGolden pins the report for three servers: each server's
// registry in turn, then every query's timeline merged from the three trace
// rings. The merged entry takes its status and duration from the
// originator's ring, whatever the participants recorded. Run with -update
// after an intentional format change.
func TestRenderMergedGolden(t *testing.T) {
	q5 := wire.QueryID{Origin: 1, Seq: 5}
	q7 := wire.QueryID{Origin: 2, Seq: 7}
	body := `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`
	snap := func(name string, steps uint64, traces ...site.TraceEntry) server.DebugSnapshot {
		reg := metrics.NewRegistry()
		reg.Counter("site_steps").Add(steps)
		return server.DebugSnapshot{Site: name, Metrics: reg.Snapshot(), Traces: traces}
	}
	snaps := []server.DebugSnapshot{
		snap("s1", 6, site.TraceEntry{
			QID: q5, Body: body, Partial: true, Duration: 2300 * time.Microsecond,
			Spans: []site.Span{
				{Site: 1, Seq: 1, Hop: 0, Filter: 0, In: 4, Out: 2, DurationUS: 12},
				{Site: 1, Seq: 2, Hop: 0, Filter: 0, In: 2, Out: 1, DurationUS: 9},
			},
		}, site.TraceEntry{
			QID: q7, Body: body, Duration: 700 * time.Microsecond,
			Spans: []site.Span{{Site: 1, Seq: 1, Hop: 1, Filter: 2, In: 3, Out: 3, DurationUS: 5}},
		}),
		snap("s2", 8, site.TraceEntry{
			QID: q5, Body: body, Duration: 2100 * time.Microsecond,
			Spans: []site.Span{{Site: 2, Seq: 1, Hop: 1, Filter: 2, In: 5, Out: 2, DurationUS: 17}},
		}, site.TraceEntry{
			QID: q7, Body: body, Duration: 900 * time.Microsecond,
			Spans: []site.Span{{Site: 2, Seq: 1, Hop: 0, Filter: 0, In: 5, Out: 3, DurationUS: 8}},
		}),
		snap("s3", 2, site.TraceEntry{
			QID: q5, Body: body, Duration: 1800 * time.Microsecond,
			Spans: []site.Span{{Site: 3, Seq: 1, Hop: 2, Filter: 2, In: 2, Out: 2, DurationUS: 9}},
		}),
	}
	var b strings.Builder
	renderAll(&b, snaps, -1)
	got := b.String()

	golden := filepath.Join("testdata", "render_merged.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("merged render output changed.\n--- got ---\n%s\n--- want ---\n%s\nRun with -update if intentional.", got, want)
	}
	for _, line := range []string{"traces (2 of 2):", "q5@s1  partial  2.3ms  4 spans", "q7@s2  complete  900µs  2 spans"} {
		if !strings.Contains(got, line) {
			t.Errorf("merged report lacks %q:\n%s", line, got)
		}
	}
}
