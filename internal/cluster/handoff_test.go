package cluster

import (
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/termination"
)

// absentQuery chases every Reference pointer and selects a keyword no object
// carries: the whole graph is visited and no participant ever has a result
// to send home.
const absentQuery = `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "absent", ?) -> T`

// controlsSent sums site_controls_sent over every site of c.
func controlsSent(c *LocalCluster) uint64 {
	var n uint64
	for _, id := range c.Sites() {
		n += c.Metrics(id).Snapshot().Counters["site_controls_sent"]
	}
	return n
}

// checkOneSpanPerObject requires a timeline of exactly one span per visited
// object, no (site, seq) pair twice, covering every site of c.
func checkOneSpanPerObject(t *testing.T, c *LocalCluster, spans []site.Span, objects int) {
	t.Helper()
	if len(spans) != objects {
		t.Errorf("timeline has %d spans, want one per object (%d)", len(spans), objects)
	}
	seen := make(map[[2]uint64]bool)
	var in uint32
	for _, sp := range spans {
		k := [2]uint64{uint64(sp.Site), sp.Seq}
		if seen[k] {
			t.Errorf("span (site %d, seq %d) appears twice", sp.Site, sp.Seq)
		}
		seen[k] = true
		in += sp.In
	}
	// A ring's closing pointer re-enters its first object, which the mark
	// table then skips, so a span may count one object twice.
	if in < uint32(objects) {
		t.Errorf("spans account for %d objects in, want >= %d", in, objects)
	}
	sites := spanSites(spans)
	for _, id := range c.Sites() {
		if !sites[id] {
			t.Errorf("timeline has no spans from site %v", id)
		}
	}
	checkSorted(t, spans)
}

// TestSerialChainHandsCreditOn: on a ring over three sites with no results,
// every hop forwards one Deref and drains, so each hands its credit on with
// that Deref instead of mailing it home; the ring ends at the originator and
// not one Control is sent. Each site keeps its own spans, so the merged
// timeline still has one span per object from every site — with or without
// deref batching.
func TestSerialChainHandsCreditOn(t *testing.T) {
	const n = 61
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Tuning: site.Tuning{DerefBatch: site.Unbatched}}},
		{"deref-batch", Options{Tuning: site.Tuning{DerefBatch: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := termination.NewAudit()
			tc.opts.TermAudit = audit
			c := NewLocal(3, tc.opts)
			defer c.Close()
			ids := loadRingLocal(t, c, n, []string{"hot", "cold"})
			res, qid, err := c.ExecQID(1, absentQuery, ids[:1], 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IDs) != 0 || res.Partial {
				t.Fatalf("answer %v partial %v, want empty and complete", res.IDs, res.Partial)
			}
			if got := controlsSent(c); got != 0 {
				t.Errorf("site_controls_sent summed over sites = %d, want 0", got)
			}
			var handOffs uint64
			for _, id := range c.Sites() {
				handOffs += c.Metrics(id).Snapshot().Counters["termination_weight_handoffs"]
			}
			if handOffs == 0 {
				t.Error("termination_weight_handoffs is 0 on every site")
			}
			checkOneSpanPerObject(t, c, mergedTrace(t, c, qid, c.Sites()...).Spans, n)
			if err := audit.Err(); err != nil {
				t.Errorf("credit not conserved: %v", err)
			}
			if err := c.Err(); err != nil {
				t.Errorf("internal error: %v", err)
			}
		})
	}
}

// TestLongChainHandsCreditOn: a chain that leaves the originator at once and
// never comes back, alternating between the two other sites, hands its
// credit on at every hop however long it runs. Exactly one Control is sent,
// the last hop's return, and the merged timeline is still complete.
func TestLongChainHandsCreditOn(t *testing.T) {
	const hops = 100
	audit := termination.NewAudit()
	c := NewLocal(3, Options{Ablation: site.Ablation{TermAudit: audit}})
	defer c.Close()
	objs := make([]*object.Object, hops+1)
	objs[0] = c.Store(1).NewObject()
	for i := 1; i <= hops; i++ {
		objs[i] = c.Store(object.SiteID(2 + i%2)).NewObject()
	}
	for i, o := range objs {
		o.Add("keyword", object.Keyword("cold"), object.Value{})
		if i < hops {
			o.Add("Pointer", object.String("Reference"), object.Pointer(objs[i+1].ID))
		}
		if err := c.Put(o.ID.Birth, o); err != nil {
			t.Fatal(err)
		}
	}
	res, qid, err := c.ExecQID(1, absentQuery, []object.ID{objs[0].ID}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.Partial {
		t.Fatalf("answer %v partial %v, want empty and complete", res.IDs, res.Partial)
	}
	// The last hop has no work to hand its credit to, so it returns it.
	if got := controlsSent(c); got != 1 {
		t.Errorf("site_controls_sent summed over sites = %d, want 1 (the last hop's return)", got)
	}
	checkOneSpanPerObject(t, c, mergedTrace(t, c, qid, c.Sites()...).Spans, hops+1)
	if err := audit.Err(); err != nil {
		t.Errorf("credit not conserved: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("internal error: %v", err)
	}
}
