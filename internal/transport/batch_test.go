package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// scriptFault drops exactly the frames its rule names, and nothing else:
// drop is asked with n = how many frames (acks included — they are judged in
// the acking endpoint's direction) were judged on that directed link before
// this one.
type scriptFault struct {
	drop func(from, to object.SiteID, n int) bool

	mu sync.Mutex
	n  map[[2]object.SiteID]int
}

func (f *scriptFault) Judge(from, to object.SiteID) (bool, int, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == nil {
		f.n = make(map[[2]object.SiteID]int)
	}
	k := [2]object.SiteID{from, to}
	n := f.n[k]
	f.n[k]++
	return f.drop(from, to, n), 1, 0
}

func (f *scriptFault) judged(from, to object.SiteID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[[2]object.SiteID{from, to}]
}

// meteredPair is pairOpts with one registry per endpoint, so sender-side and
// receiver-side counters can be told apart.
func meteredPair(t *testing.T, opts Options) (t1, t2 *TCP, c2 *collector, reg1, reg2 *metrics.Registry) {
	t.Helper()
	reg1, reg2 = metrics.NewRegistry(), metrics.NewRegistry()
	o1, o2 := opts, opts
	o1.Metrics, o2.Metrics = reg1, reg2
	t1, t2, _, c2 = pairEach(t, o1, o2)
	return t1, t2, c2, reg1, reg2
}

func finish(seq int) *wire.Finish {
	return &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: uint64(seq)}}
}

func waitDrained(t *testing.T, tr *TCP, peer object.SiteID) {
	t.Helper()
	if err := waitfor.Until(10*time.Second, func() bool { return tr.Pending(peer) == 0 }); err != nil {
		t.Fatalf("pending to %v never drained: %d left", peer, tr.Pending(peer))
	}
}

// assertExactlyOnce checks that the collector holds Finish messages 0..n-1,
// each once.
func assertExactlyOnce(t *testing.T, c *collector, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[uint64]int)
	for _, m := range c.msgs {
		seen[m.(*wire.Finish).QID.Seq]++
	}
	if len(seen) != n || len(c.msgs) != n {
		t.Fatalf("delivered %d messages, %d distinct; want %d of each", len(c.msgs), len(seen), n)
	}
	for i := 0; i < n; i++ {
		if seen[uint64(i)] != 1 {
			t.Errorf("message %d delivered %d times", i, seen[uint64(i)])
		}
	}
}

// TestBurstSharesOneWriteAndFewAcks: k frames queued to one peer leave in one
// write at Flush, and the receiver retires them with far fewer than k acks.
func TestBurstSharesOneWriteAndFewAcks(t *testing.T) {
	// A slow retransmission tick, so the only flush is the explicit one.
	t1, _, c2, reg1, reg2 := meteredPair(t, Options{RetransmitBase: 2 * time.Second})
	if err := t1.Send(2, finish(0)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	waitDrained(t, t1, 2)
	writes0 := reg1.Snapshot().Counters["transport_writes"]
	acks0 := reg2.Snapshot().Counters["transport_acks_sent"]

	const k = 200
	for i := 1; i <= k; i++ {
		if err := t1.Queue(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg1.Snapshot().Counters["transport_writes"] - writes0; got != 0 {
		t.Fatalf("Queue alone wrote %d times", got)
	}
	if got := t1.Pending(2); got != k {
		t.Fatalf("pending after queueing = %d, want %d", got, k)
	}
	t1.Flush()
	c2.wait(t, k+1)
	waitDrained(t, t1, 2)
	assertExactlyOnce(t, c2, k+1)

	if got := reg1.Snapshot().Counters["transport_writes"] - writes0; got != 1 {
		t.Errorf("%d queued frames left in %d writes, want 1", k, got)
	}
	s2 := reg2.Snapshot()
	if got := s2.Counters["transport_acks_sent"] - acks0; got == 0 || got >= k/4 {
		t.Errorf("%d frames were acknowledged by %d acks; want at least one and far fewer than one each", k, got)
	}
	if got := s2.Counters["transport_frames_deduped"]; got != 0 {
		t.Errorf("%d duplicate frames on a clean link", got)
	}
	s1 := reg1.Snapshot()
	if got := s1.Counters["transport_frames_retransmitted"]; got != 0 {
		t.Errorf("%d retransmissions on a clean link", got)
	}
	if got := s1.Histograms["transport_ack_rtt_us"].Count; got != k+1 {
		t.Errorf("ack RTT observations = %d, want one per frame (%d)", got, k+1)
	}
}

// TestColdLinkFirstSendIsNotARetransmission: frames queued before the link
// is up go out exactly once, by the connect flush — not again by a later
// Flush — and that first transmission is not counted (or budgeted) as a
// retransmission.
func TestColdLinkFirstSendIsNotARetransmission(t *testing.T) {
	t1, _, c2, reg1, reg2 := meteredPair(t, Options{RetransmitBase: 2 * time.Second})
	const k = 5
	for i := 0; i < k; i++ {
		if err := t1.Queue(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	t1.Flush() // still dialing, or a no-op after the connect flush
	c2.wait(t, k)
	t1.Flush()
	waitDrained(t, t1, 2)
	if _, err := waitfor.Stable(5*time.Second, 50*time.Millisecond, func() uint64 {
		return reg2.Snapshot().Counters["transport_frames_deduped"]
	}); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, c2, k)
	s1, s2 := reg1.Snapshot(), reg2.Snapshot()
	if got := s1.Counters["transport_frames_sent"]; got != k {
		t.Errorf("frames_sent = %d, want %d", got, k)
	}
	if got := s1.Counters["transport_frames_retransmitted"]; got != 0 {
		t.Errorf("first send over a cold link counted %d retransmissions", got)
	}
	if got := s2.Counters["transport_frames_deduped"]; got != 0 {
		t.Errorf("receiver saw %d duplicates: queued frames went out more than once", got)
	}
	if got := s1.Counters["transport_writes"]; got != 1 {
		t.Errorf("connect flush took %d writes, want 1", got)
	}
}

// TestSelectiveAckRetiresFrameAboveGap: when frame 2 of 3 is lost, frames 1
// and 3 are retired at once — 3 by a selective ack, without waiting for the
// gap — and only frame 2 is retransmitted.
func TestSelectiveAckRetiresFrameAboveGap(t *testing.T) {
	fault := &scriptFault{drop: func(from, to object.SiteID, n int) bool { return from == 1 && n == 1 }}
	// Long enough that the assertions below run before the retransmission.
	opts := Options{RetransmitBase: 800 * time.Millisecond, Fault: fault}
	t1, _, c2, reg1, _ := meteredPair(t, opts)
	for i := 0; i < 3; i++ {
		if err := t1.Queue(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	t1.Flush()
	c2.wait(t, 2)
	if err := waitfor.Until(5*time.Second, func() bool { return t1.Pending(2) == 1 }); err != nil {
		t.Fatalf("pending = %d, want 1 (frame above the gap retired, gap outstanding)", t1.Pending(2))
	}
	if got := reg1.Snapshot().Counters["transport_frames_retransmitted"]; got != 0 {
		t.Fatalf("frames 1 and 3 retired only after %d retransmissions", got)
	}
	c2.mu.Lock()
	for _, m := range c2.msgs {
		if m.(*wire.Finish).QID.Seq == 1 {
			t.Error("dropped frame was delivered before its retransmission")
		}
	}
	c2.mu.Unlock()

	c2.wait(t, 3)
	waitDrained(t, t1, 2)
	assertExactlyOnce(t, c2, 3)
	if got := reg1.Snapshot().Counters["transport_frames_retransmitted"]; got != 1 {
		t.Errorf("retransmissions = %d, want exactly the lost frame", got)
	}
}

// TestLostCumulativeAckHealedByNext: the ack for frame 1 is lost; the ack
// frame 2 provokes covers both, so nothing is retransmitted.
func TestLostCumulativeAckHealedByNext(t *testing.T) {
	fault := &scriptFault{drop: func(from, to object.SiteID, n int) bool { return from == 2 && n == 0 }}
	opts := Options{RetransmitBase: 2 * time.Second, Fault: fault}
	t1, _, c2, reg1, _ := meteredPair(t, opts)
	if err := t1.Send(2, finish(0)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	if err := waitfor.Until(5*time.Second, func() bool { return fault.judged(2, 1) == 1 }); err != nil {
		t.Fatal("first ack never judged")
	}
	if got := t1.Pending(2); got != 1 {
		t.Fatalf("pending = %d after a lost ack, want 1", got)
	}
	if err := t1.Send(2, finish(1)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 2)
	waitDrained(t, t1, 2)
	assertExactlyOnce(t, c2, 2)
	s := reg1.Snapshot()
	if got := s.Counters["transport_frames_retransmitted"]; got != 0 {
		t.Errorf("lost cumulative ack cost %d retransmissions, want 0", got)
	}
	if got := s.Counters["transport_acks_received"]; got != 1 {
		t.Errorf("acks received = %d, want the one that retired both frames", got)
	}
}

// TestDuplicateBelowFloorIsAckedAgain: when the only ack is lost, the
// retransmitted frame — a duplicate at the receiver's floor — must be
// answered again, or the sender would retransmit forever. This is also the
// "real ack loss" side of the retransmission accounting.
func TestDuplicateBelowFloorIsAckedAgain(t *testing.T) {
	fault := &scriptFault{drop: func(from, to object.SiteID, n int) bool { return from == 2 && n == 0 }}
	opts := Options{RetransmitBase: 5 * time.Millisecond, Fault: fault}
	t1, _, c2, reg1, reg2 := meteredPair(t, opts)
	if err := t1.Send(2, finish(0)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	waitDrained(t, t1, 2)
	if _, err := waitfor.Stable(5*time.Second, 50*time.Millisecond, c2.count); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, c2, 1)
	if got := reg1.Snapshot().Counters["transport_frames_retransmitted"]; got == 0 {
		t.Error("ack loss reported no retransmission")
	}
	s2 := reg2.Snapshot()
	if got := s2.Counters["transport_frames_deduped"]; got == 0 {
		t.Error("retransmitted duplicate not seen by the receiver")
	}
	if got := s2.Counters["transport_acks_sent"]; got < 1 {
		t.Errorf("acks sent = %d, want the duplicate acknowledged after the lost ack", got)
	}
}

// readAck reads one ack off a hand-driven connection.
func readAck(t *testing.T, c net.Conn) *wire.Ack {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := wire.ReadFrame(c, maxFrame)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	m, err := wire.Decode(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := m.(*wire.Ack)
	if !ok || fr.Seq != 0 {
		t.Fatalf("reverse path carried %T (frame seq %d), want an unreliable ack", m, fr.Seq)
	}
	return ack
}

// TestEpochChangeResetsFloor drives a receiver by hand: a sender whose epoch
// changes (a restarted process) starts a new sequence space, so its first
// frame must be delivered although its number is below the old floor, and
// the first ack of the new epoch must carry the new floor — the old one
// would retire frames the new incarnation has not even sent yet. A
// duplicate at the floor is acked again.
func TestEpochChangeResetsFloor(t *testing.T) {
	_, t2, _, c2 := pair(t)
	c, err := net.Dial("tcp", t2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sender = object.SiteID(7)
	write := func(epoch uint64, seqs ...uint64) {
		var data []byte
		for _, seq := range seqs {
			data = wire.AppendFrameMsg(data, sender, epoch, seq, finish(int(seq)))
		}
		if _, err := c.Write(data); err != nil {
			t.Fatal(err)
		}
	}

	write(100, 1, 2, 3, 4, 5)
	for cum := uint64(0); cum < 5; {
		ack := readAck(t, c)
		if ack.Cum <= cum || ack.Cum > 5 || ack.Seq > ack.Cum {
			t.Fatalf("in-order frames acked by %+v after floor %d", ack, cum)
		}
		cum = ack.Cum
	}
	c2.wait(t, 5)

	write(200, 1)
	if ack := readAck(t, c); ack.Cum != 1 || ack.Seq > 1 {
		t.Fatalf("first ack of the new epoch = %+v, want the new floor 1", ack)
	}
	c2.wait(t, 6)

	write(200, 1)
	if ack := readAck(t, c); ack.Cum != 1 || ack.Seq > 1 {
		t.Fatalf("duplicate at the floor acked by %+v, want the floor 1 again", ack)
	}
	write(200, 3)
	if ack := readAck(t, c); ack.Cum != 1 || ack.Seq != 3 {
		t.Fatalf("frame above a gap acked by %+v, want Cum 1 Seq 3", ack)
	}
	c2.wait(t, 7)
	if _, err := waitfor.Stable(5*time.Second, 50*time.Millisecond, c2.count); err != nil {
		t.Fatal(err)
	}
	if got := c2.count(); got != 7 {
		t.Errorf("delivered %d messages, want 7 (5 old-epoch, 2 new-epoch, duplicate dropped)", got)
	}
}

// TestSenderRestartDeliversFromSeqOne is the same property with real
// endpoints: a restarted sender's low sequence numbers are new frames, and
// its pending queue drains.
func TestSenderRestartDeliversFromSeqOne(t *testing.T) {
	t1, t2, _, c2 := pair(t)
	for i := 0; i < 5; i++ {
		if err := t1.Send(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	c2.wait(t, 5)
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ListenTCP(1, "127.0.0.1:0", func(object.SiteID, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	again.AddPeer(2, t2.Addr())
	for i := 5; i < 8; i++ {
		if err := again.Send(2, finish(i)); err != nil {
			t.Fatal(err)
		}
	}
	c2.wait(t, 8)
	waitDrained(t, again, 2)
	assertExactlyOnce(t, c2, 8)
}

// TestQueuedBorrowedMessageSurvivesRelease: a relay decodes a message in
// place over its read buffer, queues it onward and releases the buffer
// before anything is flushed — what server.Server's loop does. The frame was
// encoded at Queue time, so the forwarded copy must arrive intact; in race
// builds a released buffer is poisoned with 0xDB, which must not reach the
// wire.
func TestQueuedBorrowedMessageSurvivesRelease(t *testing.T) {
	const n = 20
	// The handler reaches the relay through itself, which exists only once
	// ListenTCPOpts has returned.
	var self atomic.Pointer[TCP]
	relayed := make(chan struct{}, n)
	relayOpts := Options{
		RetransmitBase: 2 * time.Second, // no background flush
		BufHandler: func(_ object.SiteID, m wire.Msg, buf *wire.ReadBuf) {
			if err := self.Load().Queue(3, m); err != nil {
				t.Error(err)
			}
			buf.Release()
			relayed <- struct{}{}
		},
	}
	relay, err := ListenTCPOpts(2, "127.0.0.1:0", nil, relayOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	self.Store(relay)
	sink := newCollector()
	t3, err := ListenTCP(3, "127.0.0.1:0", sink.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Close()
	src, err := ListenTCP(1, "127.0.0.1:0", func(object.SiteID, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.AddPeer(2, relay.Addr())
	relay.AddPeer(3, t3.Addr())
	// Bring the relay's outbound link up first, so the relayed frames really
	// wait in the outbound buffer rather than behind the dial.
	if err := relay.Send(3, &wire.Finish{}); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1)

	want := &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body: `S [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T`, ObjIDs: []object.ID{{Birth: 2, Seq: 3}},
		Start: 1, Token: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for i := 0; i < n; i++ {
		if err := src.Send(2, want); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-relayed:
		case <-time.After(10 * time.Second):
			t.Fatal("relay never saw the message")
		}
	}
	// Every read buffer the relay decoded over has been released (and, by
	// the later reads, reused) by now.
	relay.Flush()
	sink.wait(t, n+1)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, m := range sink.msgs[1:] {
		got, ok := m.(*wire.Deref)
		if !ok || got.Body != want.Body || string(got.Token) != string(want.Token) {
			t.Fatalf("relayed message corrupted after its read buffer was released: %#v", m)
		}
	}
}

// TestFlushConcurrentWithSenders: several goroutines queue to one peer while
// others flush and one sends — the transport promises that any goroutine may
// queue, flush or send at any time — and every message still arrives exactly
// once. Run under -race.
func TestFlushConcurrentWithSenders(t *testing.T) {
	t1, _, c2, _, _ := meteredPair(t, Options{})
	const workers, per = 4, 150
	stop := make(chan struct{})
	var flushers sync.WaitGroup
	for i := 0; i < 2; i++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					t1.Flush()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				send := t1.Queue
				if w == workers {
					send = t1.Send
				}
				if err := send(2, finish(w*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flushers.Wait()
	t1.Flush()
	c2.wait(t, (workers+1)*per)
	waitDrained(t, t1, 2)
	assertExactlyOnce(t, c2, (workers+1)*per)
}

// TestCloseSettlesOwedAcks: an endpoint that receives a message and closes at
// once (a one-shot client handed its answer) still acknowledges it, although
// the ack was being held; the sender is not left retransmitting to a peer
// that is gone.
func TestCloseSettlesOwedAcks(t *testing.T) {
	// RetransmitBase 2s: the ack hold is 250ms, and no retransmission could
	// reach the closed endpoint anyway.
	t1, t2, c2, reg1, _ := meteredPair(t, Options{RetransmitBase: 2 * time.Second})
	if err := t1.Send(2, finish(0)); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, t1, 2)
	if got := reg1.Snapshot().Counters["transport_frames_retransmitted"]; got != 0 {
		t.Errorf("%d retransmissions; the ack should have been written by Close", got)
	}
}

// TestIdleRunsOncePerRead: the Idle hook marks the read boundary, not each
// frame. Three reliable frames that arrive in one write all reach the
// BufHandler before the hook runs, and the hook runs exactly once more
// before the reader blocks: the ack for all three, written after the hook,
// finds it run once for the connection's first read and once for this one.
// A receiver that batches what one read brought depends on this.
func TestIdleRunsOncePerRead(t *testing.T) {
	var (
		mu        sync.Mutex
		delivered int
		seen      []int // delivered, as of each hook run
		tr        atomic.Pointer[TCP]
	)
	opts := Options{
		BufHandler: func(_ object.SiteID, _ wire.Msg, buf *wire.ReadBuf) {
			buf.Release()
			mu.Lock()
			delivered++
			mu.Unlock()
		},
		Idle: func() {
			mu.Lock()
			seen = append(seen, delivered)
			mu.Unlock()
			tr.Load().Flush() // the hook holds no transport lock
		},
	}
	ep, err := ListenTCPOpts(2, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.Store(ep)
	t.Cleanup(func() { _ = ep.Close() })
	c, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var data []byte
	for seq := uint64(1); seq <= 3; seq++ {
		data = wire.AppendFrameMsg(data, 1, 7, seq, finish(int(seq)))
	}
	if _, err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	if ack := readAck(t, c); ack.Cum != 3 {
		t.Fatalf("ack %+v, want one cumulative ack for all three frames", ack)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 3 {
		t.Fatalf("hook saw %v delivered frames at its runs, want [0 3]: once before the first read, once after all three", seen)
	}
}

// deadlineCounter counts the read deadlines set on the connection it wraps.
type deadlineCounter struct {
	net.Conn
	n int
}

func (c *deadlineCounter) SetReadDeadline(d time.Time) error {
	c.n++
	return c.Conn.SetReadDeadline(d)
}

// TestAckHoldArmsDeadlineOnce: while an ack is owed, every fill wants the
// same deadline (the hold runs from the oldest owed ack), so a run of
// single-frame fills within one hold arms the read deadline once — each
// re-arm would reset a runtime timer — not once per fill.
func TestAckHoldArmsDeadlineOnce(t *testing.T) {
	tr, err := ListenTCPOpts(2, "127.0.0.1:0", func(object.SiteID, wire.Msg) {}, Options{RetransmitBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn := &deadlineCounter{Conn: server}
	in := &inboundConn{t: tr, c: conn}
	in.owe(1, 7, 1, 1) // the hold (RetransmitBase/ackHoldDiv) outlasts the reads
	const fills = 8
	b := make([]byte, 16)
	for i := 0; i < fills; i++ {
		if _, err := client.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Read(b); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if conn.n > 2 {
		t.Fatalf("%d fills within one hold set the read deadline %d times, want at most 2", fills, conn.n)
	}
}
