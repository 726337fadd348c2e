package cluster

import (
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// spanSites collects the distinct sites appearing in a timeline.
func spanSites(spans []wire.Span) map[object.SiteID]bool {
	out := make(map[object.SiteID]bool)
	for _, sp := range spans {
		out[sp.Site] = true
	}
	return out
}

// checkSorted verifies the (Hop, Site, Seq) timeline order the originator
// promises.
func checkSorted(t *testing.T, spans []wire.Span) {
	t.Helper()
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Hop > b.Hop ||
			(a.Hop == b.Hop && a.Site > b.Site) ||
			(a.Hop == b.Hop && a.Site == b.Site && a.Seq > b.Seq) {
			t.Errorf("timeline out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

// TestTraceTimelineCoversAllSites runs the pointer-chase closure across a
// 3-site cluster and checks the assembled timeline: every visited site
// contributes spans, the originator's spans are hop 0, participants are
// deeper, and per-site metrics agree with the trace.
func TestTraceTimelineCoversAllSites(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 18, []string{"hot", "cold"})
	res, err := c.Exec(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Fatalf("results = %d, want 9", len(res.IDs))
	}
	if len(res.Spans) == 0 {
		t.Fatal("no trace spans on the completed query")
	}
	sites := spanSites(res.Spans)
	for _, id := range c.Sites() {
		if !sites[id] {
			t.Errorf("timeline has no spans from site %v", id)
		}
	}
	checkSorted(t, res.Spans)
	var inTotal uint32
	for _, sp := range res.Spans {
		if (sp.Site == 1) != (sp.Hop == 0) {
			t.Errorf("span %+v: hop 0 must be exactly the originator", sp)
		}
		if sp.In == 0 {
			t.Errorf("span %+v reports no objects in", sp)
		}
		inTotal += sp.In
	}
	// The ring has 18 objects; every one enters a closure filter step
	// somewhere, exactly once (mark tables suppress revisits).
	if inTotal < 18 {
		t.Errorf("spans account for %d objects in, want >= 18", inTotal)
	}
	// The trace and the metrics describe the same execution.
	var steps uint64
	for _, id := range c.Sites() {
		snap := c.Metrics(id).Snapshot()
		steps += snap.Counters["site_steps"]
	}
	if steps < uint64(inTotal) {
		t.Errorf("metrics report %d steps, fewer than %d traced objects", steps, inTotal)
	}
	if snap := c.Metrics(1).Snapshot(); snap.Counters["termination_weight_splits"] == 0 {
		t.Error("originator metrics report no termination weight splits")
	}
}

// TestTraceSurvivesChaosDuplicates floods the cluster with duplicated and
// dropped frames: retransmission and chaos duplication must not produce
// duplicate (site, seq) spans in the assembled timeline.
func TestTraceSurvivesChaosDuplicates(t *testing.T) {
	c := NewLocal(3, Options{Chaos: &chaos.Config{
		Seed: 31, DropRate: 0.2, DupRate: 0.35,
	}})
	defer c.Close()
	ids := loadRingLocal(t, c, 18, []string{"hot", "cold"})
	res, err := c.Exec(1, closureQuery, ids[:1], 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Fatalf("results = %d, want 9", len(res.IDs))
	}
	seen := make(map[[2]uint64]int)
	for _, sp := range res.Spans {
		seen[[2]uint64{uint64(sp.Site), sp.Seq}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("span (site %d, seq %d) appears %d times", k[0], k[1], n)
		}
	}
	sites := spanSites(res.Spans)
	if len(sites) != 3 {
		t.Errorf("timeline covers %d sites, want 3", len(sites))
	}
	checkSorted(t, res.Spans)
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestTracePartialWhenPeerDown partitions one site away: the query returns a
// partial answer whose timeline covers the live sites and omits the dead one.
func TestTracePartialWhenPeerDown(t *testing.T) {
	c := NewLocal(3, Options{
		Chaos:  &chaos.Config{Seed: 13},
		Tuning: site.Tuning{HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: 50 * time.Millisecond},
	})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	c.Injector().Isolate(3, []object.SiteID{1, 2})
	if err := waitfor.Until(5*time.Second, func() bool {
		return c.PeerIsDown(1, 3) && c.PeerIsDown(2, 3)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("expected a partial answer, got %+v", res)
	}
	if len(res.Spans) == 0 {
		t.Fatal("partial answer carries no trace at all")
	}
	sites := spanSites(res.Spans)
	if !sites[1] || !sites[2] {
		t.Errorf("timeline misses a live site: %v", sites)
	}
	if sites[3] {
		t.Errorf("timeline claims spans from the dead site: %v", res.Spans)
	}
	checkSorted(t, res.Spans)
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}
