package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
)

// boundedQuery is the paper's bounded iterator over (Pointer, "L") links.
func boundedQuery(k int) string {
	return fmt.Sprintf(`S [ (Pointer, "L", ?X) ^^X ]*%d -> T`, k)
}

// linkGraph stores one object per name at its site, with a (Pointer, "L")
// tuple per edge in edge order, and returns the ids by name.
func linkGraph(t *testing.T, c *SimCluster, at map[string]object.SiteID, edges [][2]string) map[string]object.ID {
	t.Helper()
	objs := make(map[string]*object.Object, len(at))
	for name, s := range at {
		objs[name] = c.Store(s).NewObject()
	}
	for _, e := range edges {
		objs[e[0]].Add("Pointer", object.String("L"), object.Pointer(objs[e[1]].ID))
	}
	ids := make(map[string]object.ID, len(objs))
	for name, o := range objs {
		if err := c.Put(at[name], o); err != nil {
			t.Fatal(err)
		}
		ids[name] = o.ID
	}
	return ids
}

// linkLatencies is a 1-based one-way latency matrix over n sites: uniform
// everywhere except the directed links listed.
func linkLatencies(n int, uniform time.Duration, links map[[2]object.SiteID]time.Duration) [][]time.Duration {
	m := make([][]time.Duration, n+1)
	for i := range m {
		m[i] = make([]time.Duration, n+1)
		for j := range m[i] {
			m[i][j] = uniform
		}
	}
	for l, d := range links {
		m[l[0]][l[1]] = d
	}
	return m
}

// sortedIDs returns the named ids in ID order, as a Result lists them.
func sortedIDs(ids map[string]object.ID, names ...string) []object.ID {
	out := make([]object.ID, len(names))
	for i, n := range names {
		out[i] = ids[n]
	}
	slices.SortFunc(out, object.ID.Compare)
	return out
}

// TestBoundedClosureArrivalOrder: a bounded iterator's answer is every
// object with some pointer chain of length at most k, whichever chain
// reaches an object first. A → B → D has length 3, so D is in the answer
// of *3 even when the length-3 visit of B, through C, arrives before the
// length-2 one. When the receiver's mark table was keyed on (object, filter)
// without the depth, that later, shorter visit was dropped and D with it.
func TestBoundedClosureArrivalOrder(t *testing.T) {
	at := map[string]object.SiteID{"A": 1, "B": 2, "C": 3, "D": 2}
	edges := [][2]string{{"A", "B"}, {"A", "C"}, {"C", "B"}, {"B", "D"}}
	for _, tc := range []struct {
		name  string
		links map[[2]object.SiteID]time.Duration
	}{
		{"uniform", nil},
		{"longer chain first", map[[2]object.SiteID]time.Duration{
			{1, 2}: 100 * time.Millisecond, {1, 3}: time.Millisecond, {3, 2}: time.Millisecond,
		}},
	} {
		c := NewSim(3, Options{Cost: sim.Paper()})
		ids := linkGraph(t, c, at, edges)
		c.setLinkLatency(linkLatencies(3, 10*time.Millisecond, tc.links))
		res, _, err := c.Exec(1, boundedQuery(3), []object.ID{ids["A"]})
		if err != nil {
			t.Fatal(err)
		}
		if want := sortedIDs(ids, "A", "B", "C", "D"); !slices.Equal(res.IDs, want) {
			t.Errorf("%s: answer %v, want %v (A, B, C, D)", tc.name, res.IDs, want)
		}
	}
}

// TestBoundedClosureSentCache is the sender-side form: X and Z both live at
// site 1 and both point at B. Z's chain (A → Y → Z) is one longer than X's,
// but reaches site 1 first. When the sent-cache was keyed on (object,
// filter) without the depth, site 1 shipped B at length 4 and suppressed
// the length-3 reference that leads on to D.
func TestBoundedClosureSentCache(t *testing.T) {
	at := map[string]object.SiteID{"A": 2, "X": 1, "Y": 3, "Z": 1, "B": 4, "D": 4}
	edges := [][2]string{{"A", "X"}, {"A", "Y"}, {"Y", "Z"}, {"X", "B"}, {"Z", "B"}, {"B", "D"}}
	for _, tc := range []struct {
		name  string
		links map[[2]object.SiteID]time.Duration
	}{
		{"uniform", nil},
		{"longer chain first", map[[2]object.SiteID]time.Duration{
			{2, 1}: 100 * time.Millisecond, {2, 3}: time.Millisecond, {3, 1}: time.Millisecond,
		}},
	} {
		c := NewSim(4, Options{Cost: sim.Paper()})
		ids := linkGraph(t, c, at, edges)
		c.setLinkLatency(linkLatencies(4, 10*time.Millisecond, tc.links))
		res, _, err := c.Exec(2, boundedQuery(4), []object.ID{ids["A"]})
		if err != nil {
			t.Fatal(err)
		}
		if want := sortedIDs(ids, "A", "X", "Y", "Z", "B", "D"); !slices.Equal(res.IDs, want) {
			t.Errorf("%s: answer %v, want %v (all six); site 1 suppressed %d derefs",
				tc.name, res.IDs, want, c.SiteStats(1).DerefsSuppressed)
		}
	}
}

// TestBoundedClosureRandomDAGs: on random DAGs spread over three sites with
// seeded random per-link latencies, a k-bounded iterator returns exactly
// the objects with some chain of length at most max(k, 2) from the root.
// Each object points a few positions ahead, so most have several chains of
// different lengths; the sink points at itself so the body's selection
// never drops it. k = 25 unrolls past 64 filters, so the mark words of the
// engine and of the sender's sent-cache cross a 64-filter block.
func TestBoundedClosureRandomDAGs(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewSim(3, Options{Cost: sim.Paper()})
		objs := make([]*object.Object, n)
		for i := range objs {
			objs[i] = c.Store(object.SiteID(rng.Intn(3) + 1)).NewObject()
		}
		depth := make([]int, n) // shortest chain length from the root; 0 if unreached
		depth[0] = 1
		for i, o := range objs {
			if i < n-1 {
				for range rng.Intn(3) + 1 {
					j := i + 1 + rng.Intn(min(4, n-1-i))
					o.Add("Pointer", object.String("L"), object.Pointer(objs[j].ID))
					if depth[i] > 0 && (depth[j] == 0 || depth[i]+1 < depth[j]) {
						depth[j] = depth[i] + 1
					}
				}
			} else {
				o.Add("Pointer", object.String("L"), object.Pointer(o.ID))
			}
			if err := c.Put(o.ID.Birth, o); err != nil {
				t.Fatal(err)
			}
		}
		links := make(map[[2]object.SiteID]time.Duration)
		for _, a := range c.Sites() {
			for _, b := range c.Sites() {
				links[[2]object.SiteID{a, b}] = time.Duration(1+rng.Intn(300)) * time.Millisecond
			}
		}
		c.setLinkLatency(linkLatencies(3, 0, links))
		for _, k := range []int{1, 2, 3, 4, 5, 25} {
			var want []object.ID
			for i, d := range depth {
				if d > 0 && d <= max(k, 2) {
					want = append(want, objs[i].ID)
				}
			}
			slices.SortFunc(want, object.ID.Compare)
			res, _, err := c.Exec(objs[0].ID.Birth, boundedQuery(k), []object.ID{objs[0].ID})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.IDs, want) {
				t.Errorf("seed %d k %d: answer %v, want %v (depths %v)", seed, k, res.IDs, want, depth)
			}
		}
	}
}
