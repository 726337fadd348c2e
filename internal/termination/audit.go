package termination

import (
	"fmt"
	"sync"

	"hyperfile/internal/object"
)

// Audit is a test-only conservation checker for the weighted-credit
// detector. Wrap every detector of a query in the same Audit and the
// invariant
//
//	sum(held, all sites) + sum(recovered) + in-flight(all tokens) == 1
//
// is re-checked after every detector event, under one mutex so the check is
// atomic even when sites run on separate goroutines. In-flight credit is
// tracked by decoding every token a wrapped detector emits (OnSend, OnIdle)
// and crediting it back when a token is ingested (OnWorkReceived,
// OnControl); a hand-off replaces the emitted token with the merged one.
// The first violation is recorded and reported by Err.
//
// The invariant only holds on lossless paths: force-completion after a peer
// death deliberately abandons credit (it is parked at a corpse and can never
// return), so tests using an Audit must avoid peer kills (the chaos
// network's reliable delivery is fine — dropped frames are retransmitted
// and duplicates deduplicated before reaching site logic). Cooperative
// cancellation (wire.Cancel) and deadline expiry are lossless: cancelled
// sites return all held credit, and work arriving for a tombstoned query
// bounces its token back to the originator instead of dropping it.
type Audit struct {
	mu  sync.Mutex
	qs  map[string]*auditState
	err error
}

type auditState struct {
	dets     []*weighted
	inflight credit
	// outstanding counts emitted-but-not-yet-ingested tokens by their wire
	// encoding. Ingesting a token with no outstanding copy means it was
	// forged or delivered twice — the failure the sum check alone cannot see,
	// because detector and ledger would add and subtract the same amount.
	outstanding map[string]int
	events      int
}

// NewAudit returns an empty conservation checker.
func NewAudit() *Audit {
	return &Audit{qs: make(map[string]*auditState)}
}

// Wrap registers a detector under the query key and returns the checking
// wrapper. Non-weighted detectors (Dijkstra-Scholten has no conserved
// quantity to audit) are returned unchanged.
func (a *Audit) Wrap(query string, d Detector) Detector {
	w, ok := d.(*weighted)
	if !ok {
		return d
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.qs[query]
	if st == nil {
		st = &auditState{outstanding: make(map[string]int)}
		a.qs[query] = st
	}
	st.dets = append(st.dets, w)
	return &auditDetector{a: a, q: query, w: w}
}

// Err returns the first conservation violation observed, or nil.
func (a *Audit) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Events returns the total number of audited detector events, so tests can
// assert the checker actually exercised the protocol.
func (a *Audit) Events() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, st := range a.qs {
		n += st.events
	}
	return n
}

// addInflight decodes a token and adds its credit to the query's in-flight
// pool; subInflight is its inverse.
func (a *Audit) addInflight(st *auditState, token []byte) {
	var c credit
	if err := c.decode(token); err != nil {
		a.fail("audit: emitted token does not decode: %v", err)
		return
	}
	st.inflight.absorb(&c)
	st.outstanding[string(token)]++
}

func (a *Audit) subInflight(st *auditState, token []byte) {
	var c credit
	if err := c.decode(token); err != nil {
		a.fail("audit: ingested token does not decode: %v", err)
		return
	}
	if st.outstanding[string(token)] == 0 {
		a.fail("audit: token worth %v ingested without an outstanding emission (forged or delivered twice)", &c)
		return
	}
	st.outstanding[string(token)]--
	c.mant.Neg(&c.mant)
	st.inflight.absorb(&c)
}

func (a *Audit) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// check asserts the conservation invariant for one query. Callers hold a.mu.
func (a *Audit) check(q string, st *auditState) {
	st.events++
	var sum credit
	add := func(c *credit) { // absorb moves credit, and the ledgers keep theirs
		part := credit{exp: c.exp}
		part.mant.Set(&c.mant)
		sum.absorb(&part)
	}
	add(&st.inflight)
	for _, w := range st.dets {
		add(&w.held)
		add(&w.recovered)
	}
	if !sum.isOne() {
		a.fail("audit: query %s credit sum = %v after %d events (held+recovered+inflight must be 1)",
			q, &sum, st.events)
	}
}

// auditDetector interposes the ledger updates around a weighted detector.
type auditDetector struct {
	a *Audit
	q string
	w *weighted
}

var _ Detector = (*auditDetector)(nil)

func (ad *auditDetector) state() *auditState { return ad.a.qs[ad.q] }

func (ad *auditDetector) OnSend(to object.SiteID) ([]byte, error) {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	tok, err := ad.w.OnSend(to)
	if err != nil {
		return tok, err
	}
	st := ad.state()
	ad.a.addInflight(st, tok)
	ad.a.check(ad.q, st)
	return tok, nil
}

func (ad *auditDetector) OnWorkReceived(from object.SiteID, token []byte) ([]ControlMsg, error) {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	ctls, err := ad.w.OnWorkReceived(from, token)
	if err != nil {
		return ctls, err
	}
	st := ad.state()
	ad.a.subInflight(st, token)
	for _, c := range ctls {
		ad.a.addInflight(st, c.Token)
	}
	ad.a.check(ad.q, st)
	return ctls, nil
}

// HandOff swaps the pre-merge token for the merged one in the ledger: the
// former will never be sent, so ingesting it later is a forgery.
func (ad *auditDetector) HandOff(token []byte) ([]byte, bool, error) {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	merged, ok, err := ad.w.HandOff(token)
	if err != nil || !ok {
		return merged, ok, err
	}
	st := ad.state()
	ad.a.subInflight(st, token)
	ad.a.addInflight(st, merged)
	ad.a.check(ad.q, st)
	return merged, true, nil
}

func (ad *auditDetector) OnIdle() []ControlMsg {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	ctls := ad.w.OnIdle()
	st := ad.state()
	for _, c := range ctls {
		ad.a.addInflight(st, c.Token)
	}
	ad.a.check(ad.q, st)
	return ctls
}

func (ad *auditDetector) OnControl(from object.SiteID, token []byte) error {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	if err := ad.w.OnControl(from, token); err != nil {
		return err
	}
	st := ad.state()
	ad.a.subInflight(st, token)
	ad.a.check(ad.q, st)
	return nil
}

func (ad *auditDetector) Done() bool {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	return ad.w.Done()
}

// Quiet delegates to the wrapped detector (see weighted.Quiet).
func (ad *auditDetector) Quiet() bool {
	ad.a.mu.Lock()
	defer ad.a.mu.Unlock()
	return ad.w.Quiet()
}
