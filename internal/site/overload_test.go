package site

import (
	"slices"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

// holdOpen submits a query whose only dereference targets a site outside the
// harness (the envelope is dropped), so its credit never returns and the
// originator context stays unfinished until cancelled.
func holdOpen(t *testing.T, h *harness, origin object.SiteID, seq uint64) wire.QueryID {
	t.Helper()
	qid := wire.QueryID{Origin: origin, Seq: seq}
	out, err := h.sites[origin].HandleMessage(client, &wire.Submit{
		QID: qid, Client: client,
		Body:    `S (keyword, "hot", ?) -> T`,
		Initial: []object.ID{{Birth: 77, Seq: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(origin, out)
	return qid
}

func TestAdmissionRejectsAtCapacity(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.MaxInflight = 1 })
	holdOpen(t, h, 1, 1)
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 2}, Client: client,
		Body: `S (keyword, "hot", ?) -> T`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("envelopes = %v, want one Reject", out)
	}
	rej, ok := out[0].Msg.(*wire.Reject)
	if !ok || out[0].To != client {
		t.Fatalf("got %T to %v, want Reject to client", out[0].Msg, out[0].To)
	}
	if rej.QID != (wire.QueryID{Origin: 1, Seq: 2}) || rej.Reason == "" {
		t.Errorf("reject = %+v", rej)
	}
	st := h.sites[1].Stats()
	if st.Admitted != 1 || st.Rejected != 1 {
		t.Errorf("admitted %d rejected %d, want 1 and 1", st.Admitted, st.Rejected)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.MaxInflight = 1; c.AdmissionQueue = 2 })
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	blocked := holdOpen(t, h, 1, 1)
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 2}, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{local.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || h.sites[1].Contexts() != 1 {
		t.Fatalf("queued submit produced %v (contexts %d)", out, h.sites[1].Contexts())
	}
	// Cancelling the blocker frees the slot; the queued query runs through.
	h.deliver(1, h.sites[1].Abort(blocked))
	h.pump()
	if len(h.completes) != 2 {
		t.Fatalf("completes = %d, want blocker partial + queued answer", len(h.completes))
	}
	if cm := h.completes[1]; cm.Partial || len(cm.IDs) != 1 {
		t.Errorf("queued query answer = %+v, want full answer with one id", cm)
	}
	if st := h.sites[1].Stats(); st.Admitted != 2 || st.Shed != 0 {
		t.Errorf("admitted %d shed %d, want 2 and 0", st.Admitted, st.Shed)
	}
}

func TestAdmissionQueueShedsExpired(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.MaxInflight = 1; c.AdmissionQueue = 2 })
	blocked := holdOpen(t, h, 1, 1)
	// The 1µs budget may lapse before the submit-dispatch drain runs (it
	// always does under the race detector's slowdown) or only after the
	// sleep below — the shed Reject is correct from either drain, so both
	// envelope batches are searched.
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 2}, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, BudgetUS: 1,
	})
	if err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	// lint:ignore baresleep the elapsing wall clock IS the condition — the 1µs queue budget must lapse, and there is no observable state to poll until the Abort below triggers the shed
	time.Sleep(time.Millisecond)
	envs := append(out, h.sites[1].Abort(blocked)...)
	var shed *wire.Reject
	for _, env := range envs {
		if r, ok := env.Msg.(*wire.Reject); ok {
			shed = r
		}
	}
	if shed == nil || !strings.Contains(shed.Reason, "shed") {
		t.Fatalf("no shed Reject in %v", envs)
	}
	if st := h.sites[1].Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

func TestDeadlineExpiresToAnnotatedPartial(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.QueryDeadline = time.Nanosecond })
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	cm := h.exec(1, 1, `S (keyword, "hot", ?) -> T`, []object.ID{local.ID})
	if !cm.Partial || cm.Reason != "deadline expired" {
		t.Errorf("partial %v reason %q, want annotated expiry", cm.Partial, cm.Reason)
	}
	if h.sites[1].Contexts() != 0 {
		t.Errorf("expired context not torn down")
	}
	if st := h.sites[1].Stats(); st.DeadlineExpired != 1 {
		t.Errorf("deadline_expired = %d, want 1", st.DeadlineExpired)
	}
}

func TestBudgetStampsOutgoingWork(t *testing.T) {
	h := newHarness(t, 2, nil)
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: wire.QueryID{Origin: 1, Seq: 1}, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{remote.ID},
		BudgetUS: 10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var deref *wire.Deref
	for _, env := range out {
		if d, ok := env.Msg.(*wire.Deref); ok {
			deref = d
		}
	}
	if deref == nil {
		t.Fatalf("no Deref in %v", out)
	}
	if deref.BudgetUS == 0 || deref.BudgetUS > 10_000_000 {
		t.Errorf("deref budget = %d, want shrunk remainder of 10s", deref.BudgetUS)
	}
	h.deliver(1, out)
	ctx := h.sites[2].contexts[wire.QueryID{Origin: 1, Seq: 1}]
	if ctx == nil || ctx.deadline.IsZero() {
		t.Errorf("participant did not derive a deadline from the budget")
	}
}

func TestNoteBudgetKeepsEarliestDeadline(t *testing.T) {
	now := time.Now()
	ctx := &qctx{}
	ctx.noteBudget(5_000_000, now)
	first := ctx.deadline
	ctx.noteBudget(9_000_000, now) // looser budget must not extend
	if !ctx.deadline.Equal(first) {
		t.Errorf("looser budget extended the deadline")
	}
	ctx.noteBudget(1_000_000, now) // tighter budget wins
	if !ctx.deadline.Before(first) {
		t.Errorf("tighter budget did not shrink the deadline")
	}
	origin := &qctx{isOrigin: true}
	origin.noteBudget(1, now)
	if !origin.deadline.IsZero() {
		t.Errorf("incoming work adjusted the originator's deadline")
	}
	if got := ctx.budgetUS(ctx.deadline.Add(time.Second)); got != 1 {
		t.Errorf("expired context budget = %d, want clamp to 1", got)
	}
	if got := (&qctx{}).budgetUS(now); got != 0 {
		t.Errorf("no-deadline budget = %d, want 0", got)
	}
}

// TestCancelLosslessWithLateDeref is the credit-conservation core of
// cooperative cancellation: the originator cancels while a dereference is
// still in flight, the participant tombstones the query before the work
// arrives, and the bounced token is exactly what completes the originator's
// drain. The audit verifies conservation after every detector event.
func TestCancelLosslessWithLateDeref(t *testing.T) {
	aud := termination.NewAudit()
	h := newHarness(t, 2, func(c *Config) { c.TermAudit = aud })
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	qid := wire.QueryID{Origin: 1, Seq: 1}
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: qid, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{remote.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the Deref in flight; cancel reaches the participant first.
	envs := h.sites[1].Abort(qid)
	var sawCancel bool
	for _, env := range envs {
		if _, ok := env.Msg.(*wire.Cancel); ok {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatalf("abort did not fan out Cancel: %v", envs)
	}
	h.deliver(1, envs)
	if h.sites[1].Contexts() != 1 {
		t.Fatalf("originator should be draining in-flight credit")
	}
	// The late Deref arrives at the tombstoned participant and bounces its
	// token home, which completes the drain.
	h.deliver(1, out)
	if h.sites[1].Contexts() != 0 || h.sites[2].Contexts() != 0 {
		t.Errorf("contexts after drain: origin %d participant %d, want 0 0",
			h.sites[1].Contexts(), h.sites[2].Contexts())
	}
	if err := aud.Err(); err != nil {
		t.Errorf("credit conservation violated: %v", err)
	}
	if aud.Events() == 0 {
		t.Errorf("audit saw no events")
	}
}

func TestCancelParticipantReturnsCredit(t *testing.T) {
	aud := termination.NewAudit()
	h := newHarness(t, 2, func(c *Config) { c.TermAudit = aud })
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	qid := wire.QueryID{Origin: 1, Seq: 1}
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: qid, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{remote.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(1, out) // participant context now holds work and credit
	envs, err := h.sites[2].HandleMessage(1, &wire.Cancel{QID: qid, Reason: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if h.sites[2].Contexts() != 0 {
		t.Errorf("cancelled participant context not dropped")
	}
	h.deliver(2, envs) // returned credit completes the query at the origin
	if h.sites[1].Contexts() != 0 {
		t.Errorf("originator did not terminate after credit returned")
	}
	if err := aud.Err(); err != nil {
		t.Errorf("credit conservation violated: %v", err)
	}
	if st := h.sites[2].Stats(); st.Cancelled != 1 {
		t.Errorf("participant cancelled = %d, want 1", st.Cancelled)
	}
}

// TestExpirePinnedParticipantReturnsCredit: a participant's budget runs out
// while another worker has the context pinned mid-step. The sweep still
// returns the participant's credit and drops the context at once, so the
// originator completes without waiting for that worker.
func TestExpirePinnedParticipantReturnsCredit(t *testing.T) {
	aud := termination.NewAudit()
	h := newHarness(t, 2, func(c *Config) { c.TermAudit = aud })
	remote := h.store(2).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(2).Put(remote); err != nil {
		t.Fatal(err)
	}
	qid := wire.QueryID{Origin: 1, Seq: 1}
	out, err := h.sites[1].HandleMessage(client, &wire.Submit{
		QID: qid, Client: client,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{remote.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(1, out) // participant context now holds work and credit
	ctx := h.sites[2].contexts[qid]
	ctx.stepping = true
	ctx.deadline = time.Now().Add(-time.Second)
	envs, err := h.sites[2].ExpireDeadlines()
	if err != nil {
		t.Fatal(err)
	}
	if h.sites[2].Contexts() != 0 {
		t.Errorf("expired participant context not dropped")
	}
	h.deliver(2, envs)
	if len(h.completes) != 1 || h.sites[1].Contexts() != 0 {
		t.Fatalf("originator did not complete: %d completions, %d contexts", len(h.completes), h.sites[1].Contexts())
	}
	if cm := h.completes[0]; !cm.Partial || !slices.Equal(cm.Unreachable, []object.SiteID{2}) {
		t.Errorf("partial %v unreachable %v, want a partial naming s2", cm.Partial, cm.Unreachable)
	}
	if err := aud.Err(); err != nil {
		t.Errorf("credit conservation violated: %v", err)
	}
}

// TestReadyQueueCompactsStaleEntries is the regression test for unbounded
// ready-queue growth: contexts that finish while queued used to leave their
// entries behind until they happened to reach the head. Cancelling a pile of
// queued queries must leave the queue compacted, not full of garbage.
func TestReadyQueueCompactsStaleEntries(t *testing.T) {
	h := newHarness(t, 1, nil)
	local := h.store(1).NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := h.store(1).Put(local); err != nil {
		t.Fatal(err)
	}
	const n = 64
	for seq := uint64(1); seq <= n; seq++ {
		out, err := h.sites[1].HandleMessage(client, &wire.Submit{
			QID: wire.QueryID{Origin: 1, Seq: seq}, Client: client,
			Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{local.ID},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(1, out)
	}
	if len(h.sites[1].ready) != n {
		t.Fatalf("ready queue = %d, want %d queued contexts", len(h.sites[1].ready), n)
	}
	for seq := uint64(1); seq <= n; seq++ {
		envs, err := h.sites[1].HandleMessage(client, &wire.Cancel{
			QID: wire.QueryID{Origin: 1, Seq: seq},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(1, envs)
	}
	if got := len(h.sites[1].ready); got > n/2 {
		t.Errorf("ready queue holds %d entries after all queries finished, want compacted", got)
	}
	if h.sites[1].readyStale != 0 && h.sites[1].readyStale*2 > len(h.sites[1].ready) {
		t.Errorf("readyStale = %d with queue len %d, compaction did not run",
			h.sites[1].readyStale, len(h.sites[1].ready))
	}
	if h.sites[1].Contexts() != 0 {
		t.Errorf("contexts leaked: %d", h.sites[1].Contexts())
	}
	if len(h.completes) != n {
		t.Errorf("completes = %d, want %d cancelled partials", len(h.completes), n)
	}
}
