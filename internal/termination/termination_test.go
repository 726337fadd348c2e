package termination

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
)

func TestWeightedSendWithoutCreditFails(t *testing.T) {
	w := newWeighted(2, 1, Metrics{}) // participant, no credit yet
	if _, err := w.OnSend(3); !errors.Is(err, ErrToken) {
		t.Errorf("OnSend without credit: %v", err)
	}
}

func TestWeightedTrivialQuery(t *testing.T) {
	// Originator does all the work locally: idle immediately recovers its
	// own credit.
	w := newWeighted(1, 1, Metrics{})
	if w.Done() {
		t.Fatal("done before idle")
	}
	if msgs := w.OnIdle(); len(msgs) != 0 {
		t.Fatalf("originator idle should not emit messages, got %v", msgs)
	}
	if !w.Done() {
		t.Error("not done after idle with no sends")
	}
}

func TestWeightedTwoSiteExchange(t *testing.T) {
	origin := newWeighted(1, 1, Metrics{})
	remote := newWeighted(2, 1, Metrics{})

	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	// Origin drains: returns its remaining half.
	msgs := origin.OnIdle()
	if len(msgs) != 0 {
		t.Fatalf("originator OnIdle emitted %v", msgs)
	}
	if origin.Done() {
		t.Error("done while remote credit outstanding")
	}
	if _, err := remote.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	ret := remote.OnIdle()
	if len(ret) != 1 || ret[0].To != 1 {
		t.Fatalf("remote return = %v", ret)
	}
	if err := origin.OnControl(2, ret[0].Token); err != nil {
		t.Fatal(err)
	}
	if !origin.Done() {
		t.Error("not done after full credit recovery")
	}
}

func TestWeightedOverRecoveryDetected(t *testing.T) {
	origin := newWeighted(1, 1, Metrics{})
	origin.OnIdle() // recovers 1
	if err := origin.OnControl(2, creditOf(big.NewInt(1), 1).encode()); !errors.Is(err, ErrToken) {
		t.Errorf("over-recovery: %v", err)
	}
}

func TestControlAtNonOriginatorRejected(t *testing.T) {
	w := newWeighted(2, 1, Metrics{})
	if err := w.OnControl(1, creditOf(big.NewInt(1), 1).encode()); !errors.Is(err, ErrToken) {
		t.Errorf("OnControl at participant: %v", err)
	}
}

// participantHolding returns a participant that received 1/2 from a fresh
// originator and split it once: it holds 1/4, and tok is the unsent 1/4.
func participantHolding(t *testing.T, m Metrics) (origin, part *weighted, tok []byte) {
	t.Helper()
	origin, part = newWeighted(1, 1, Metrics{}), newWeighted(2, 1, m)
	in, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.OnWorkReceived(1, in); err != nil {
		t.Fatal(err)
	}
	if tok, err = part.OnSend(3); err != nil {
		t.Fatal(err)
	}
	return origin, part, tok
}

func TestHandOffMergesHeldIntoToken(t *testing.T) {
	reg := metrics.NewRegistry()
	m := Metrics{Returns: reg.Counter("returns"), HandOffs: reg.Counter("handoffs")}
	origin, part, tok := participantHolding(t, m)
	merged, err := part.HandOff(tok)
	if err != nil {
		t.Fatalf("HandOff: %v", err)
	}
	var got credit
	if err := got.decode(merged); err != nil {
		t.Fatalf("merged token %x does not decode: %v", merged, err)
	}
	if got.rat().Cmp(big.NewRat(1, 2)) != 0 { // token 1/4 + held 1/4
		t.Errorf("merged token worth %v, want 1/2", &got)
	}
	if !part.held.isZero() {
		t.Errorf("participant still holds %v after handing off", &part.held)
	}
	if cms := part.OnIdle(); len(cms) != 0 {
		t.Errorf("OnIdle after a hand-off returned %v", cms)
	}
	if m.HandOffs.Load() != 1 || m.Returns.Load() != 0 {
		t.Errorf("handoffs %d returns %d, want 1 and 0", m.HandOffs.Load(), m.Returns.Load())
	}
	// The next site holds everything, and its return completes the query.
	next := newWeighted(3, 1, Metrics{})
	if _, err := next.OnWorkReceived(2, merged); err != nil {
		t.Fatal(err)
	}
	origin.OnIdle()
	for _, cm := range next.OnIdle() {
		if err := origin.OnControl(3, cm.Token); err != nil {
			t.Fatal(err)
		}
	}
	if !origin.Done() {
		t.Error("not done after the handed-on credit came home")
	}
}

func TestHandOffRejectsMalformedToken(t *testing.T) {
	for name, tok := range malformedTokens() {
		_, part, _ := participantHolding(t, Metrics{})
		if _, err := part.HandOff(tok); !errors.Is(err, ErrToken) {
			t.Errorf("HandOff(%s %x) = %v, want ErrToken", name, tok, err)
		}
		if part.held.rat().Cmp(big.NewRat(1, 4)) != 0 {
			t.Errorf("%s: a refused hand-off changed held to %v", name, &part.held)
		}
	}
}

// detectorMaker builds the detector of site self for a query of origin.
type detectorMaker func(self, origin object.SiteID) Detector

// newDetector is the detectorMaker of the production detector.
func newDetector(self, origin object.SiteID) Detector { return New(Weighted, self, origin) }

// quiet reports that a detector a detectorMaker built holds no credit.
func quiet(d Detector) bool {
	switch d := d.(type) {
	case *weighted:
		return d.held.isZero()
	case *diffDetector:
		return d.w.held.isZero()
	}
	panic(fmt.Sprintf("quiet: unexpected detector %T", d))
}

// execution runs a randomized multi-site computation under one kind of
// detector (name names it in failures) and checks safety (Done never true
// while activity remains) and liveness (Done eventually true). A participant
// that drains right after sending work hands its credit on with the last
// message it sent in handOff of those drains, as the site layer does; the
// number of hand-offs is returned.
func execution(t *testing.T, name string, mk detectorMaker, seed int64, sites int, handOff float64) (handedOff int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A second stream, so the hand-off draws leave the schedule's alone.
	handRng := rand.New(rand.NewSource(^seed))
	origin := object.SiteID(1)
	det := make(map[object.SiteID]Detector, sites)
	work := make(map[object.SiteID]int, sites)
	for i := 1; i <= sites; i++ {
		id := object.SiteID(i)
		det[id] = mk(id, origin)
		work[id] = 0
	}
	work[origin] = 1 + rng.Intn(5)

	type msg struct {
		from, to object.SiteID
		token    []byte
		control  bool
	}
	var inflight []msg
	totalSent := 0

	emit := func(from object.SiteID, cms []ControlMsg) {
		for _, c := range cms {
			inflight = append(inflight, msg{from: from, to: c.To, token: c.Token, control: true})
		}
	}
	idleCheck := func(id object.SiteID) {
		if work[id] == 0 {
			emit(id, det[id].OnIdle())
		}
	}

	checkSafety := func() {
		if !det[origin].Done() {
			return
		}
		for id, w := range work {
			if w != 0 {
				t.Fatalf("%s seed %d: Done with work at %v", name, seed, id)
			}
		}
		for _, m := range inflight {
			if !m.control {
				t.Fatalf("%s seed %d: Done with work message in flight", name, seed)
			}
		}
	}

	for steps := 0; steps < 100000; steps++ {
		if det[origin].Done() {
			break
		}
		var busy []object.SiteID
		for id, w := range work {
			if w > 0 {
				busy = append(busy, id)
			}
		}
		// Choose: process a work unit or deliver a message.
		if len(busy) > 0 && (len(inflight) == 0 || rng.Intn(2) == 0) {
			id := busy[rng.Intn(len(busy))]
			last := -1 // index in inflight of the work this step sent last
			// While processing, possibly send new work to random sites.
			if totalSent < 200 {
				for k := rng.Intn(3); k > 0; k-- {
					to := object.SiteID(1 + rng.Intn(sites))
					if to == id {
						continue
					}
					tok, err := det[id].OnSend(to)
					if err != nil {
						t.Fatalf("%s seed %d: OnSend: %v", name, seed, err)
					}
					inflight = append(inflight, msg{from: id, to: to, token: tok})
					last = len(inflight) - 1
					totalSent++
				}
			}
			work[id]--
			if work[id] == 0 && id != origin && last >= 0 && handRng.Float64() < handOff {
				merged, err := det[id].HandOff(inflight[last].token)
				if err != nil {
					t.Fatalf("%s seed %d: HandOff: %v", name, seed, err)
				}
				inflight[last].token = merged
				handedOff++
				if cms := det[id].OnIdle(); len(cms) != 0 {
					t.Fatalf("%s seed %d: %d returns after a hand-off", name, seed, len(cms))
				}
			}
			idleCheck(id)
		} else if len(inflight) > 0 {
			i := rng.Intn(len(inflight))
			m := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			if m.control {
				if err := det[m.to].OnControl(m.from, m.token); err != nil {
					t.Fatalf("%s seed %d: OnControl: %v", name, seed, err)
				}
			} else {
				cms, err := det[m.to].OnWorkReceived(m.from, m.token)
				if err != nil {
					t.Fatalf("%s seed %d: OnWorkReceived: %v", name, seed, err)
				}
				emit(m.to, cms)
				work[m.to]++
			}
			idleCheck(m.to)
		}
		checkSafety()
	}
	if !det[origin].Done() {
		t.Fatalf("%s seed %d: never terminated (inflight=%d)", name, seed, len(inflight))
	}
	return handedOff
}

func TestWeightedRandomExecutions(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		execution(t, "weighted", newDetector, seed, 2+int(seed)%7, 0)
	}
}

// serialChain hands one credit share down depth sites in series. Each site
// halves it and returns its own half, so denominators reach 2^depth and the
// originator's recovered sum ends at exactly 1 — except on the seeded
// handOff share of hops, where the site hands its half on with the work
// instead and the share travels undivided.
func serialChain(t testing.TB, mk detectorMaker, depth int, handOff float64) {
	rng := rand.New(rand.NewSource(int64(depth)))
	origin := mk(1, 1)
	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	origin.OnIdle()
	for i := 0; i < depth; i++ {
		site := mk(2, 1)
		if _, err := site.OnWorkReceived(1, tok); err != nil {
			t.Fatal(err)
		}
		next, err := site.OnSend(2)
		if err != nil {
			t.Fatal(err)
		}
		wantReturns := 1
		if rng.Float64() < handOff {
			merged, err := site.HandOff(next)
			if err != nil {
				t.Fatalf("depth %d: HandOff: %v", i, err)
			}
			next, wantReturns = merged, 0
		}
		ret := site.OnIdle()
		if len(ret) != wantReturns || !quiet(site) {
			t.Fatalf("depth %d: returns = %v, quiet %v", i, ret, quiet(site))
		}
		for _, r := range ret {
			if err := origin.OnControl(2, r.Token); err != nil {
				t.Fatal(err)
			}
		}
		tok = next
	}
	if origin.Done() {
		t.Fatal("done while final credit share outstanding")
	}
	last := mk(3, 1)
	if _, err := last.OnWorkReceived(2, tok); err != nil {
		t.Fatal(err)
	}
	ret := last.OnIdle()
	if err := origin.OnControl(3, ret[0].Token); err != nil {
		t.Fatal(err)
	}
	if !origin.Done() {
		t.Error("not done after deep-chain recovery")
	}
}

// wideFanout has the originator split width times, one share per
// participant, and bank the width returns in reverse order.
func wideFanout(t testing.TB, mk detectorMaker, width int) {
	origin := mk(1, 1)
	returns := make([][]byte, width)
	for i := range returns {
		tok, err := origin.OnSend(2)
		if err != nil {
			t.Fatal(err)
		}
		site := mk(2, 1)
		if _, err := site.OnWorkReceived(1, tok); err != nil {
			t.Fatal(err)
		}
		returns[i] = site.OnIdle()[0].Token
	}
	origin.OnIdle()
	for i := width - 1; i >= 0; i-- {
		if origin.Done() {
			t.Fatalf("done with %d returns outstanding", i+1)
		}
		if err := origin.OnControl(2, returns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !origin.Done() {
		t.Error("not done after every return was banked")
	}
}

func TestDeepChainCreditsStayExact(t *testing.T) { serialChain(t, newDetector, 300, 0) }

func TestWideFanoutCreditsStayExact(t *testing.T) { wideFanout(t, newDetector, 200) }

// TestInstrumentedCounters checks that weight splits and returns are counted
// (and that the zero Metrics stays a no-op, which every other test in this
// file exercises implicitly).
func TestInstrumentedCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	m := Metrics{Splits: reg.Counter("splits"), Returns: reg.Counter("returns")}
	origin := NewInstrumented(1, 1, m)
	remote := NewInstrumented(2, 1, m)
	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.OnWorkReceived(1, tok); err != nil {
		t.Fatal(err)
	}
	for _, cm := range remote.OnIdle() {
		if err := origin.OnControl(2, cm.Token); err != nil {
			t.Fatal(err)
		}
	}
	origin.OnIdle()
	if got := m.Splits.Load(); got == 0 {
		t.Errorf("splits = 0, want > 0")
	}
	if got := m.Returns.Load(); got == 0 {
		t.Errorf("returns = 0, want > 0")
	}
}
