package transport

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// windowFrame is what sendWindow.push must have stored for message i.
func windowFrame(i int) []byte {
	return wire.AppendFrameMsg(nil, 1, 7, uint64(i), &wire.Control{Token: chaosPayload(i)})
}

func pushFrame(w *sendWindow, i int) {
	w.push(1, 7, uint64(i), &wire.Control{Token: chaosPayload(i)}, 0, 0)
}

// checkWindow asserts the window holds exactly the frames want, in order,
// each with the bytes it was pushed with.
func checkWindow(t *testing.T, w *sendWindow, want ...int) {
	t.Helper()
	var got []int
	for i := range w.live() {
		pf := &w.live()[i]
		if pf.done {
			continue
		}
		got = append(got, int(pf.seq))
		if !bytes.Equal(w.data(pf), windowFrame(int(pf.seq))) {
			t.Errorf("frame %d: bytes changed while it waited for its ack", pf.seq)
		}
	}
	if len(got) != len(want) || w.unacked != len(want) {
		t.Fatalf("window holds %v (unacked %d), want %v", got, w.unacked, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("window holds %v, want %v", got, want)
		}
	}
}

// retireSeq marks one sequence number done, as an ack would.
func retireSeq(w *sendWindow, seq int) {
	for i := range w.live() {
		if pf := &w.live()[i]; int(pf.seq) == seq {
			w.retire(pf)
		}
	}
}

// TestWindowSelectiveRetireReclaimedWhenPrefixPasses: a frame acknowledged
// above a gap stops counting (and would not be retransmitted: it is done) at
// once, but its slot and bytes stay until the gap below it is retired; then
// the prefix passes both and the storage starts over.
func TestWindowSelectiveRetireReclaimedWhenPrefixPasses(t *testing.T) {
	var w sendWindow
	for i := 1; i <= 3; i++ {
		pushFrame(&w, i)
	}
	retireSeq(&w, 1)
	retireSeq(&w, 3) // selectively, above the gap at 2
	w.trim()
	checkWindow(t, &w, 2)
	if len(w.live()) != 2 || !w.live()[1].done {
		t.Fatalf("the frame above the gap should be held, done, behind it: %+v", w.live())
	}
	held := len(w.slab)
	retireSeq(&w, 3) // a repeated ack changes nothing
	if w.unacked != 1 {
		t.Fatalf("unacked = %d after a repeated ack, want 1", w.unacked)
	}
	retireSeq(&w, 2)
	w.trim()
	checkWindow(t, &w)
	if len(w.live()) != 0 || len(w.slab) != 0 || held == 0 {
		t.Fatalf("emptied window keeps %d frames, %d of %d slab bytes", len(w.live()), len(w.slab), held)
	}
	// The storage is reused from the start, and holds the new frame intact.
	pushFrame(&w, 4)
	if w.live()[0].off != w.base {
		t.Errorf("reused slab does not start over: off %d, base %d", w.live()[0].off, w.base)
	}
	checkWindow(t, &w, 4)
}

// TestWindowStorageBoundedWhileNeverEmpty: 100 000 frames through a window
// that the peer acks normally but that never quite empties (there is always
// traffic in flight). Every frame still in the window keeps its bytes across
// each copy-down, and the slab and the queue stay within a small multiple of
// what is in flight.
func TestWindowStorageBoundedWhileNeverEmpty(t *testing.T) {
	var w sendWindow
	const inFlight = 100
	acked := 0
	for i := 1; i <= 100_000; i++ {
		pushFrame(&w, i)
		if i%10 == 0 && i > inFlight { // a cumulative ack for all but the last 100
			for ; acked < i-inFlight; acked++ {
				w.retire(&w.live()[acked+1-int(w.live()[0].seq)])
			}
			w.trim()
		}
		if i%997 == 0 {
			want := make([]int, 0, i-acked)
			for s := acked + 1; s <= i; s++ {
				want = append(want, s)
			}
			checkWindow(t, &w, want...)
		}
	}
	// One frame is at most 332 bytes; in flight at most 110 of them.
	if cap(w.slab) > 8*110*332 || cap(w.frames) > 8*110 {
		t.Errorf("storage grew with traffic, not with what is in flight: slab cap %d, queue cap %d",
			cap(w.slab), cap(w.frames))
	}
	retired := 0
	for w.unacked > 0 {
		w.retire(&w.live()[retired])
		retired++
	}
	w.trim()
	if w.unacked != 0 || len(w.live()) != 0 || len(w.slab) != 0 {
		t.Errorf("drained window still holds %d frames, %d bytes", len(w.live()), len(w.slab))
	}
}

// TestWindowQueueWithinTwiceInFlight: a window kept full at MaxUnacked and
// acked in small cumulative steps leaves trim's copy-down threshold
// (a dead prefix past half the queue) unmet at the moment the queue fills,
// so push must compact rather than let append grow the queue past twice
// what is in flight.
func TestWindowQueueWithinTwiceInFlight(t *testing.T) {
	var w sendWindow
	const inFlight = 4096
	acked := 0
	for i := 1; i <= 100_000; i++ {
		pushFrame(&w, i)
		if i%16 == 0 && i > inFlight {
			for ; acked < i-inFlight; acked++ {
				w.retire(&w.live()[acked+1-int(w.live()[0].seq)])
			}
			w.trim()
		}
		if c := cap(w.frames); c > 2*inFlight {
			t.Fatalf("after %d frames, %d in flight, the queue cap is %d (bound %d)", i, i-acked, c, 2*inFlight)
		}
	}
	want := make([]int, 0, inFlight)
	for s := acked + 1; s <= 100_000; s++ {
		want = append(want, s)
	}
	checkWindow(t, &w, want...)
}

// TestWindowReleasesOversizedSlab: a burst of large frames must not pin its
// slab for the life of the peer.
func TestWindowReleasesOversizedSlab(t *testing.T) {
	var w sendWindow
	w.push(1, 7, 1, &wire.Control{Token: make([]byte, 2*maxIdleSlabBytes)}, 0, 0)
	w.retire(&w.live()[0])
	w.trim()
	if cap(w.slab) != 0 {
		t.Errorf("emptied window keeps a %d-byte slab, bound is %d", cap(w.slab), maxIdleSlabBytes)
	}
}

// TestPendingDrainsAndStorageStaysBounded: the same property end to end,
// over real sockets with the peer acking normally.
func TestPendingDrainsAndStorageStaysBounded(t *testing.T) {
	t1, _, _, c2 := pairOpts(t, Options{})
	const total = 100_000
	for i := 0; i < total; i++ {
		if err := t1.Queue(2, &wire.Control{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}, Token: chaosPayload(i)}); err != nil {
			// MaxUnacked is the sender's flow control: let acks catch up.
			t1.Flush()
			if err := waitfor.Until(10*time.Second, func() bool { return t1.Pending(2) < 1024 }); err != nil {
				t.Fatal(err)
			}
			i--
			continue
		}
		if i%16 == 15 {
			t1.Flush()
		}
	}
	t1.Flush()
	c2.wait(t, total)
	waitDrained(t, t1, 2)
	p := t1.peer(object.SiteID(2))
	p.mu.Lock()
	defer p.mu.Unlock()
	// MaxUnacked (4096) frames of at most 332 bytes, doubled by append.
	if bound := 2 * 4096 * 332; cap(p.pending.slab) > bound || cap(p.pending.frames) > 2*4096 {
		t.Errorf("after %d frames the window holds slab cap %d (bound %d), queue cap %d",
			total, cap(p.pending.slab), bound, cap(p.pending.frames))
	}
}

// TestBacklogAndAbandonment: MaxUnacked still refuses the frame past the
// bound, and frames whose every transmission is lost are still abandoned
// after MaxAttempts, which empties the window for the traffic that follows.
func TestBacklogAndAbandonment(t *testing.T) {
	var healed atomic.Bool
	fault := &scriptFault{drop: func(from, to object.SiteID, n int) bool { return from == 1 && !healed.Load() }}
	opts := Options{RetransmitBase: 2 * time.Millisecond, RetransmitMax: 4 * time.Millisecond,
		MaxAttempts: 3, MaxUnacked: 8, Fault: fault}
	t1, _, c2, reg1, _ := meteredPair(t, opts)
	for i := 0; i < 8; i++ {
		if err := t1.Send(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Send(2, finish(8)); !errors.Is(err, ErrBacklog) {
		t.Fatalf("ninth unacked frame: %v, want ErrBacklog", err)
	}
	waitDrained(t, t1, 2)
	if got := reg1.Snapshot().Counters["transport_frames_abandoned"]; got != 8 {
		t.Errorf("abandoned = %d, want 8", got)
	}
	if c2.count() != 0 {
		t.Errorf("%d frames delivered through a link that drops everything", c2.count())
	}
	healed.Store(true)
	if err := t1.Send(2, finish(9)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	waitDrained(t, t1, 2)
}

// delayFirst holds back the first frame judged from site 1 and passes
// everything else.
type delayFirst struct {
	delay time.Duration
	seen  atomic.Bool
}

func (f *delayFirst) Judge(from, to object.SiteID) (bool, int, time.Duration) {
	if from == 1 && f.seen.CompareAndSwap(false, true) {
		return false, 1, f.delay
	}
	return false, 1, 0
}

// TestDelayedTransmissionOutlivesItsSlab: a fault-delayed transmission is
// the one holder of frame bytes that outlives the call that borrowed them.
// Here the frame is retransmitted, acknowledged and its slab reused by a
// different frame while the delayed copy waits; what then goes out must
// still be the first frame (the receiver drops it as a duplicate), not
// whatever the slab holds by then.
func TestDelayedTransmissionOutlivesItsSlab(t *testing.T) {
	fault := &delayFirst{delay: 150 * time.Millisecond}
	opts := Options{RetransmitBase: 4 * time.Millisecond, Fault: fault}
	t1, _, c2, reg1, reg2 := meteredPair(t, opts)
	first := &wire.Control{QID: wire.QueryID{Origin: 1, Seq: 1}, Token: chaosPayload(200)}
	if err := t1.Send(2, first); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1) // by retransmission: the first transmission is still held back
	waitDrained(t, t1, 2)
	if err := t1.Send(2, finish(2)); err != nil { // shorter, over the same slab bytes
		t.Fatal(err)
	}
	c2.wait(t, 2)
	waitDrained(t, t1, 2)
	if err := waitfor.Until(5*time.Second, func() bool {
		return reg2.Snapshot().Counters["transport_frames_deduped"] == 1
	}); err != nil {
		t.Fatalf("the delayed copy never arrived as a duplicate of the first frame (deduped %d, reconnects %d)",
			reg2.Snapshot().Counters["transport_frames_deduped"], reg1.Snapshot().Counters["transport_reconnects"])
	}
	// Bytes that were not one whole frame would have made the receiver drop
	// the connection; the next message then needs a new one.
	if err := t1.Send(2, finish(3)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 3)
	waitDrained(t, t1, 2)
	if got := reg1.Snapshot().Counters["transport_reconnects"]; got != 0 {
		t.Errorf("%d reconnects: the delayed copy reached the wire malformed", got)
	}
	if c2.count() != 3 {
		t.Errorf("delivered %d messages, want 3", c2.count())
	}
}
