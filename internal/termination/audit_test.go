package termination

import (
	"strings"
	"testing"
)

// TestAuditCleanRun drives a full weighted-detection round — origin sends
// work to two participants, both drain and return credit — and verifies the
// conservation checker stays satisfied throughout.
func TestAuditCleanRun(t *testing.T) {
	a := NewAudit()
	origin := a.Wrap("q1", New(Weighted, 1, 1))
	p2 := a.Wrap("q1", New(Weighted, 2, 1))
	p3 := a.Wrap("q1", New(Weighted, 3, 1))

	tok2, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	tok3, err := origin.OnSend(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.OnWorkReceived(1, tok2); err != nil {
		t.Fatal(err)
	}
	if _, err := p3.OnWorkReceived(1, tok3); err != nil {
		t.Fatal(err)
	}
	// Participant 2 re-sends work to participant 3 before draining.
	t23, err := p2.OnSend(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.OnWorkReceived(2, t23); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Detector{p2, p3} {
		for _, c := range p.OnIdle() {
			if c.To != 1 {
				t.Fatalf("participant returned credit to %v, want origin", c.To)
			}
			if err := origin.OnControl(0, c.Token); err != nil {
				t.Fatal(err)
			}
		}
	}
	origin.OnIdle()
	if !origin.Done() {
		t.Fatal("origin not done after all credit returned")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("conservation violated on a clean run: %v", err)
	}
	if a.Events() < 8 {
		t.Fatalf("audit saw only %d events", a.Events())
	}
}

// TestAuditCatchesDoubleDelivery: ingesting the same work token twice (a
// retransmission reaching site logic without dedup) manufactures credit from
// nothing; the checker must flag it even though the sum ledger would
// self-cancel.
func TestAuditCatchesDoubleDelivery(t *testing.T) {
	a := NewAudit()
	origin := a.Wrap("q1", New(Weighted, 1, 1))
	p2 := a.Wrap("q1", New(Weighted, 2, 1))

	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	// The detector itself happily absorbs the duplicate; only the audit can
	// know the token was already consumed.
	if _, err := p2.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	err = a.Err()
	if err == nil {
		t.Fatal("double-delivered token not flagged")
	}
	if !strings.Contains(err.Error(), "delivered twice") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// TestAuditCatchesForgedToken: a token that was never emitted by any wrapped
// detector must be rejected.
func TestAuditCatchesForgedToken(t *testing.T) {
	a := NewAudit()
	p2 := a.Wrap("q1", New(Weighted, 2, 1))
	forged, err := New(Weighted, 1, 1).OnSend(2) // unwrapped: audit never saw it
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.OnWorkReceived(1, forged); err != nil {
		t.Fatal(err)
	}
	if a.Err() == nil {
		t.Fatal("forged token not flagged")
	}
}

// TestAuditHandOff: a participant hands its credit on with its last work
// message. The sum holds throughout, the merged token is the one outstanding,
// and the pre-merge token — which is never sent — is a forgery if ingested.
func TestAuditHandOff(t *testing.T) {
	a := NewAudit()
	origin := a.Wrap("q1", New(Weighted, 1, 1))
	p2 := a.Wrap("q1", New(Weighted, 2, 1))
	p3 := a.Wrap("q1", New(Weighted, 3, 1))
	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	origin.OnIdle()
	if _, err := p2.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	pre, err := p2.OnSend(3)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := p2.HandOff(pre)
	if err != nil {
		t.Fatalf("HandOff: %v", err)
	}
	if cms := p2.OnIdle(); len(cms) != 0 {
		t.Fatalf("OnIdle after a hand-off returned %v", cms)
	}
	st := a.qs["q1"]
	if n := st.outstanding[string(pre)]; n != 0 {
		t.Errorf("pre-merge token %x still outstanding %d times", pre, n)
	}
	if n := st.outstanding[string(merged)]; n != 1 {
		t.Errorf("merged token %x outstanding %d times, want 1", merged, n)
	}
	if _, err := p3.OnWorkReceived(2, merged); err != nil {
		t.Fatal(err)
	}
	for _, cm := range p3.OnIdle() {
		if err := origin.OnControl(3, cm.Token); err != nil {
			t.Fatal(err)
		}
	}
	if !origin.Done() {
		t.Fatal("origin not done after the handed-on credit came home")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("conservation violated across a hand-off: %v", err)
	}
	// The pre-merge share was absorbed into the merged token; delivering it
	// as well would mint credit.
	if _, err := p3.OnWorkReceived(2, pre); err != nil {
		t.Fatal(err)
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "forged") {
		t.Fatalf("ingesting the pre-merge token: audit reports %v, want a forgery", err)
	}
}

// TestAuditQueriesIndependent: two queries audited by the same checker keep
// separate ledgers.
func TestAuditQueriesIndependent(t *testing.T) {
	a := NewAudit()
	o1 := a.Wrap("q1", New(Weighted, 1, 1))
	p2 := a.Wrap("q2", New(Weighted, 2, 1))
	tok, err := o1.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	// The q1 token lands in q2's ledger: from q2's point of view it was
	// never emitted.
	if _, err := p2.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	if a.Err() == nil {
		t.Fatal("cross-query token not flagged")
	}
}
