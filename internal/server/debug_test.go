package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/transport"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDebugSnapshotGoldenJSON pins the /debug/hyperfile wire format: a
// hand-built snapshot must marshal byte-for-byte to the checked-in golden
// file. Run with -update to regenerate after an intentional schema change
// (and update docs/OBSERVABILITY.md to match).
func TestDebugSnapshotGoldenJSON(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("transport_frames_sent").Add(3)
	reg.Counter("transport_writes").Add(1)
	reg.Counter("transport_frames_received").Add(4)
	reg.Counter("transport_acks_sent").Add(2)
	reg.Counter("termination_weight_splits").Add(2)
	reg.Gauge("site_live_contexts").Set(1)
	reg.Histogram("site_step_us").Observe(5)
	reg.Histogram("site_step_us").Observe(40)
	snap := DebugSnapshot{
		Site:    "s2",
		Metrics: reg.Snapshot(),
		Traces: []site.TraceEntry{{
			QID:  wire.QueryID{Origin: 2, Seq: 9},
			Body: `S (keyword, "hot", ?) -> T`,
			Spans: []site.Span{
				{Site: 2, Seq: 1, Hop: 0, Filter: 0, In: 4, Out: 2, DurationUS: 12},
				{Site: 3, Seq: 1, Hop: 1, Filter: 0, In: 2, Out: 1, DurationUS: 7},
			},
			Partial:  true,
			Duration: 1500 * time.Microsecond,
		}},
	}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "debug_snapshot.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("debug snapshot JSON changed.\n--- got ---\n%s\n--- want ---\n%s\nRun with -update if intentional, and update docs/OBSERVABILITY.md.", got, want)
	}
}

// TestDebugEndpointUnderChaos is the acceptance path: a chaos-lossy
// deployment answers a cross-site query, the servers' trace rings merge into
// a timeline covering every site, and /debug/hyperfile on the originator
// reports its own trace, non-zero transport retransmissions, and non-zero
// termination-weight activity.
func TestDebugEndpointUnderChaos(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 23, DropRate: 0.15, DupRate: 0.15})
	servers, stores, client := testDeploymentOpts(t, 3, Options{
		Transport: transport.Options{
			RetransmitBase: 3 * time.Millisecond,
			RetransmitMax:  30 * time.Millisecond,
			MaxAttempts:    400,
			Fault:          inj,
		},
	})
	ids := loadServerRing(t, stores, 30)
	cm, err := client.Exec(1, tcpClosure, ids[:1], 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 15 {
		t.Fatalf("results = %d, want 15", len(cm.IDs))
	}
	// A participant records its trace entry when the Finish reaches it.
	rings := make(map[object.SiteID][]site.TraceEntry)
	if err := waitfor.Until(5*time.Second, func() bool {
		for _, srv := range servers {
			rings[srv.ID()] = srv.Traces().Entries()
			if len(rings[srv.ID()]) == 0 {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("a server never recorded the query: %v", err)
	}
	sitesInTrace := map[string]bool{}
	for _, e := range site.MergeTraces(rings) {
		if e.QID != cm.QID {
			continue
		}
		for _, sp := range e.Spans {
			sitesInTrace[sp.Site.String()] = true
		}
	}
	if len(sitesInTrace) != 3 {
		t.Errorf("trace covers sites %v, want all 3", sitesInTrace)
	}

	addr, err := servers[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/hyperfile", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Site != "s1" {
		t.Errorf("site = %q", snap.Site)
	}
	c := snap.Metrics.Counters
	if c["termination_weight_splits"] == 0 {
		t.Error("no termination weight splits recorded at the originator")
	}
	if c["termination_weight_returns"] == 0 {
		t.Error("no termination weight returns recorded at the originator")
	}
	if c["transport_frames_sent"] == 0 || c["site_derefs_sent"] == 0 {
		t.Errorf("missing core counters: %v", c)
	}
	// Under 15% drop chaos at least one of the three servers must have
	// retransmitted; the lossy path between any pair suffices.
	var retrans uint64
	for _, srv := range servers {
		retrans += srv.DebugSnapshot().Metrics.Counters["transport_frames_retransmitted"]
	}
	if retrans == 0 {
		t.Error("no retransmissions recorded across the chaos deployment")
	}
	if len(snap.Traces) == 0 {
		t.Fatal("originator retained no trace")
	}
	last := snap.Traces[len(snap.Traces)-1]
	if len(last.Spans) == 0 || last.Partial {
		t.Errorf("trace = %+v, want complete spans", last)
	}
	if q := snap.Metrics.Histograms["site_query_quiescence_us"]; q.Count == 0 {
		t.Error("quiescence histogram empty at originator")
	}

	// The same listener serves the runtime profiles.
	prof, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/goroutine?debug=1", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Body.Close()
	if body, _ := io.ReadAll(prof.Body); prof.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine profile:") {
		t.Errorf("/debug/pprof/goroutine: status %d, body %.80q", prof.StatusCode, body)
	}
}
