package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/termination"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/workload"
)

// TestRejectionIsTheClientSentinel: LocalCluster queries through
// server.Client, so an admission refusal is one error to both vocabularies.
// A query waiting on a downed site holds the one slot of a MaxInflight 1
// origin, and the next query is refused at once.
func TestRejectionIsTheClientSentinel(t *testing.T) {
	const q = `S (keyword, "hot", ?) -> T`
	c := NewLocal(2, Options{Tuning: site.Tuning{MaxInflight: 1}})
	defer c.Close()
	far := c.Store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := c.Put(2, far); err != nil {
		t.Fatal(err)
	}
	c.SetDown(2, true)
	held := make(chan error, 1)
	go func() {
		_, err := c.Exec(1, q, []object.ID{far.ID}, 20*time.Second)
		held <- err
	}()
	if err := waitfor.Until(5*time.Second, func() bool { return c.SiteContexts(1) == 1 }); err != nil {
		t.Fatalf("the holding query never took its slot: %v", err)
	}
	_, err := c.Exec(1, q, nil, 5*time.Second)
	if !errors.Is(err, ErrRejected) || !errors.Is(err, server.ErrRejected) {
		t.Errorf("err = %v, want both cluster.ErrRejected and server.ErrRejected", err)
	}
	c.SetDown(2, false) // the held Deref's retransmission now lands
	if err := <-held; err != nil {
		t.Errorf("holding query after the heal: %v", err)
	}
}

// TestDefaultServerDropsStrandedDrain: a query that times out while its
// credit sits at an unreachable peer is cancelled, and its originator context
// drains until the cancel grace runs out. Only the deadline sweep abandons
// that drain, so a server with default options must run it too, or the
// context stays forever.
func TestDefaultServerDropsStrandedDrain(t *testing.T) {
	c := NewLocal(2, Options{})
	defer c.Close()
	far := c.Store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := c.Put(2, far); err != nil {
		t.Fatal(err)
	}
	c.SetDown(2, true)
	if _, err := c.Exec(1, `S (keyword, "hot", ?) -> T`, []object.ID{far.ID}, 200*time.Millisecond); err == nil {
		t.Fatal("a query whose only object sits at a downed site answered")
	}
	if err := waitfor.Until(15*time.Second, func() bool { return c.SiteContexts(1) == 0 }); err != nil {
		t.Errorf("site 1 still holds %d contexts after the cancel grace: %v", c.SiteContexts(1), err)
	}
}

// TestOverloadKnobsPreserveResults is the equivalence matrix's scheduler-on
// row: a cluster with admission control enabled but never under pressure
// (MaxInflight far above the offered load, a generous deadline) must produce
// exactly the paper-exact cluster's results. Overload protection may shed
// load, but it must never change an admitted query's answer.
func TestOverloadKnobsPreserveResults(t *testing.T) {
	const machines = 3
	spec := workload.Spec{N: 60, Machines: machines, Seed: 5}

	base := NewLocal(machines, Options{})
	defer base.Close()
	dBase, err := workload.Build(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	over := NewLocal(machines, Options{
		Tuning: site.Tuning{MaxInflight: 64, AdmissionQueue: 16, QueryDeadline: time.Minute},
	})
	defer over.Close()
	dOver, err := workload.Build(over, spec)
	if err != nil {
		t.Fatal(err)
	}

	for i, q := range equivCases() {
		origin := object.SiteID(i%machines + 1)
		rBase, err := base.Exec(origin, q, []object.ID{dBase.Root}, 30*time.Second)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		rOver, err := over.Exec(origin, q, []object.ID{dOver.Root}, 30*time.Second)
		if err != nil {
			t.Fatalf("overload-on %s: %v", q, err)
		}
		if rOver.Partial || rOver.Reason != "" {
			t.Fatalf("%s: unpressured query came back partial (reason %q)", q, rOver.Reason)
		}
		if !equalIDs(rBase.IDs, rOver.IDs) {
			t.Fatalf("%s: overload-on ids diverge: base %d, overload %d", q, len(rBase.IDs), len(rOver.IDs))
		}
		if rBase.Count != rOver.Count {
			t.Fatalf("%s: count diverges: base %d, overload %d", q, rBase.Count, rOver.Count)
		}
	}
	var admitted, rejected, shed int
	for _, id := range over.Sites() {
		st := over.SiteStats(id)
		admitted += st.Admitted
		rejected += st.Rejected
		shed += st.Shed
	}
	if rejected != 0 || shed != 0 {
		t.Fatalf("unpressured cluster shed load: rejected %d, shed %d", rejected, shed)
	}
	if want := len(equivCases()); admitted != want {
		t.Fatalf("admitted %d queries, want %d", admitted, want)
	}
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
	if err := over.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelStormConservesWeightUnderChaos drives a mixed open workload —
// queries that run to completion, queries whose server-side budget expires
// mid-flight, and queries their client cancels — through a lossy, reordering,
// duplicating network, and checks the weighted-credit conservation invariant
// survives: cancellation and expiry are lossless paths, so every query's
// credit must sum back to exactly 1 and every context must drain.
func TestCancelStormConservesWeightUnderChaos(t *testing.T) {
	audit := termination.NewAudit()
	c := NewLocal(3, Options{
		Tuning:   site.Tuning{DerefBatch: 4, MaxInflight: 8, AdmissionQueue: 16},
		Ablation: site.Ablation{TermAudit: audit},
		Chaos: &chaos.Config{
			Seed:        21,
			DropRate:    0.10,
			DupRate:     0.10,
			DelayRate:   0.30,
			MinDelay:    time.Millisecond,
			MaxDelay:    3 * time.Millisecond,
			ReorderRate: 0.20,
		},
	})
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{N: 60, Machines: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	cases := equivCases()
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(cases))
	for i, q := range cases {
		origin := object.SiteID(i%3 + 1)
		q := q

		// Full run: must complete cleanly despite the storm around it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Exec(origin, q, []object.ID{d.Root}, 30*time.Second)
			if err != nil {
				errs <- fmt.Errorf("full %s: %v", q, err)
				return
			}
			if res.Partial {
				errs <- fmt.Errorf("full %s: unexpected partial (reason %q)", q, res.Reason)
			}
		}()

		// Budget run: a 2ms budget under 1–3ms link delays expires most
		// queries mid-flight; the answer must come back annotated, not hang.
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.ExecBudget(origin, q, []object.ID{d.Root}, 2*time.Millisecond, 30*time.Second)
			switch {
			case errors.Is(err, ErrRejected):
				// Shed while queued: legitimate under load, nothing ran.
			case err != nil:
				errs <- fmt.Errorf("budget %s: %v", q, err)
			case res.Partial && res.Reason == "":
				errs <- fmt.Errorf("budget %s: partial answer with no reason", q)
			}
		}()

		// Client-cancel run: the client gives up almost immediately, sending
		// wire.Cancel mid-flight; the originator must answer with a partial.
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Exec(origin, q, []object.ID{d.Root}, 2*time.Millisecond)
			switch {
			case errors.Is(err, ErrRejected) || err == nil:
			case errors.Is(err, ErrTimeout):
				if res != nil && res.Partial && res.Reason == "" {
					errs <- fmt.Errorf("cancel %s: partial answer with no reason", q)
				}
			default:
				errs <- fmt.Errorf("cancel %s: %v", q, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every context — completed, cancelled, or expired — must drain: credit
	// returns over the reliable transport, so nothing may linger.
	if err := waitfor.Until(10*time.Second, func() bool {
		for _, id := range c.Sites() {
			if c.SiteContexts(id) != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		for _, id := range c.Sites() {
			t.Logf("site %v: %d live contexts", id, c.SiteContexts(id))
		}
		t.Fatalf("contexts failed to drain after cancel storm: %v", err)
	}

	var cancelled, expired int
	for _, id := range c.Sites() {
		st := c.SiteStats(id)
		cancelled += st.Cancelled
		expired += st.DeadlineExpired
	}
	if cancelled+expired == 0 {
		t.Fatal("storm produced no cancellations or expiries; test exercised nothing")
	}
	if err := audit.Err(); err != nil {
		t.Fatalf("termination audit: %v", err)
	}
	if audit.Events() == 0 {
		t.Fatal("audit saw no termination traffic")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionUnderPeerKillChaos kills a participant while the cluster is
// saturated past MaxInflight: queries already running lose a peer mid-flight,
// and queries still waiting in the admission queue start after the site is
// dead. Every admitted query must come back within its deadline as a full
// answer or an annotated partial naming the dead peer — never a hang. (No
// termination audit here: a killed site abandons its credit by design.)
func TestAdmissionUnderPeerKillChaos(t *testing.T) {
	const (
		machines = 3
		queries  = 8
		victim   = object.SiteID(3)
	)
	c := NewLocal(machines, Options{
		Tuning: site.Tuning{MaxInflight: 4, AdmissionQueue: 16, QueryDeadline: 2 * time.Second, HeartbeatInterval: 15 * time.Millisecond, SuspectAfter: 60 * time.Millisecond},
		Chaos: &chaos.Config{
			Seed:      7,
			DelayRate: 0.5,
			MinDelay:  500 * time.Microsecond,
			MaxDelay:  2 * time.Millisecond,
		},
	})
	defer c.Close()
	d, err := workload.Build(c, workload.Spec{N: 90, Machines: machines, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		query string
		res   *Result
		err   error
	}
	results := make(chan outcome, queries)
	var wg sync.WaitGroup
	cases := equivCases()
	for i := 0; i < queries; i++ {
		// Originate only at the survivors; the victim dies mid-test.
		origin := object.SiteID(i%2 + 1)
		q := cases[i%len(cases)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Exec(origin, q, []object.ID{d.Root}, 10*time.Second)
			results <- outcome{query: q, res: res, err: err}
		}()
	}

	// Kill the victim once the survivors are saturated, so some admitted
	// queries lose the peer mid-flight and the queued remainder starts
	// against a dead site.
	if err := waitfor.Until(5*time.Second, func() bool {
		return c.SiteStats(1).Admitted+c.SiteStats(2).Admitted >= 4
	}); err != nil {
		t.Fatalf("cluster never saturated: %v", err)
	}
	c.SetDown(victim, true)

	wg.Wait()
	close(results)
	partials := 0
	for o := range results {
		switch {
		case errors.Is(o.err, ErrRejected):
			// Refused at admission: the query never ran, nothing to check.
			continue
		case o.err != nil && !errors.Is(o.err, ErrTimeout):
			t.Fatalf("%s: %v", o.query, o.err)
		case o.res == nil:
			t.Fatalf("%s: no answer recovered (err %v)", o.query, o.err)
		}
		if !o.res.Partial {
			continue // finished before the kill
		}
		partials++
		named := false
		for _, s := range o.res.Unreachable {
			if s == victim {
				named = true
			}
		}
		// A partial must carry its diagnosis: either the dead peer by name,
		// or the deadline that bounded the wait for it.
		if !named && o.res.Reason == "" {
			t.Fatalf("%s: partial names neither dead peer nor reason (unreachable %v)",
				o.query, o.res.Unreachable)
		}
	}
	if partials == 0 {
		t.Fatal("no query observed the dead peer; kill timing exercised nothing")
	}
	// The survivors must shed every context within the deadline sweep.
	if err := waitfor.Until(10*time.Second, func() bool {
		return c.SiteContexts(1) == 0 && c.SiteContexts(2) == 0
	}); err != nil {
		t.Fatalf("survivor contexts failed to drain after peer kill: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
