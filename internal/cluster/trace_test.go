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

// mergedTrace waits until every site in live has recorded qid in its trace
// ring — a participant records its entry when the query's Finish reaches it
// — and returns the query's timeline merged from the rings of all of c's
// sites.
func mergedTrace(t *testing.T, c *LocalCluster, qid wire.QueryID, live ...object.SiteID) site.TraceEntry {
	t.Helper()
	recorded := func(id object.SiteID) bool {
		for _, e := range c.servers[id].Traces().Entries() {
			if e.QID == qid {
				return true
			}
		}
		return false
	}
	if err := waitfor.Until(5*time.Second, func() bool {
		for _, id := range live {
			if !recorded(id) {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("sites %v never all recorded %v: %v", live, qid, err)
	}
	rings := make(map[object.SiteID][]site.TraceEntry)
	for _, id := range c.Sites() {
		rings[id] = c.servers[id].Traces().Entries()
	}
	for _, e := range site.MergeTraces(rings) {
		if e.QID == qid {
			return e
		}
	}
	t.Fatalf("no trace of %v", qid)
	return site.TraceEntry{}
}

// checkSorted verifies the (Hop, Site, Seq) timeline order MergeTraces
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
	res, qid, err := c.ExecQID(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Fatalf("results = %d, want 9", len(res.IDs))
	}
	tr := mergedTrace(t, c, qid, c.Sites()...)
	if len(tr.Spans) == 0 {
		t.Fatal("no trace spans on the completed query")
	}
	sites := spanSites(tr.Spans)
	for _, id := range c.Sites() {
		if !sites[id] {
			t.Errorf("timeline has no spans from site %v", id)
		}
	}
	checkSorted(t, tr.Spans)
	var inTotal uint32
	for _, sp := range tr.Spans {
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
	res, qid, err := c.ExecQID(1, closureQuery, ids[:1], 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 9 {
		t.Fatalf("results = %d, want 9", len(res.IDs))
	}
	tr := mergedTrace(t, c, qid, c.Sites()...)
	seen := make(map[[2]uint64]int)
	for _, sp := range tr.Spans {
		seen[[2]uint64{uint64(sp.Site), sp.Seq}]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("span (site %d, seq %d) appears %d times", k[0], k[1], n)
		}
	}
	sites := spanSites(tr.Spans)
	if len(sites) != 3 {
		t.Errorf("timeline covers %d sites, want 3", len(sites))
	}
	checkSorted(t, tr.Spans)
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
	res, qid, err := c.ExecQID(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("expected a partial answer, got %+v", res)
	}
	tr := mergedTrace(t, c, qid, 1, 2)
	if len(tr.Spans) == 0 {
		t.Fatal("partial answer carries no trace at all")
	}
	if !tr.Partial {
		t.Error("the merged trace of a partial answer is not marked partial")
	}
	sites := spanSites(tr.Spans)
	if !sites[1] || !sites[2] {
		t.Errorf("timeline misses a live site: %v", sites)
	}
	if sites[3] {
		t.Errorf("timeline claims spans from the dead site: %v", tr.Spans)
	}
	checkSorted(t, tr.Spans)
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}

// TestTraceSpansMatchStepCounters is a differential between the two records
// of one execution: on a fresh cluster, the objects a site's spans say
// entered its filter steps sum to exactly the steps its site_steps counter
// took for the query.
func TestTraceSpansMatchStepCounters(t *testing.T) {
	c := NewLocal(3, Options{})
	defer c.Close()
	ids := loadRingLocal(t, c, 30, []string{"hot", "cold"})
	before := make(map[object.SiteID]uint64)
	for _, id := range c.Sites() {
		before[id] = c.Metrics(id).Snapshot().Counters["site_steps"]
	}
	_, qid, err := c.ExecQID(1, closureQuery, ids[:1], 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tr := mergedTrace(t, c, qid, c.Sites()...)
	in := make(map[object.SiteID]uint64)
	for _, sp := range tr.Spans {
		in[sp.Site] += uint64(sp.In)
	}
	for _, id := range c.Sites() {
		steps := c.Metrics(id).Snapshot().Counters["site_steps"] - before[id]
		if steps == 0 || in[id] != steps {
			t.Errorf("site %v: spans account for %d objects in, site_steps grew by %d", id, in[id], steps)
		}
	}
}
