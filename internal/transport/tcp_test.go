package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// The chaos injector must satisfy the transport's structural Fault hook.
var _ Fault = (*chaos.Injector)(nil)

// collector gathers inbound messages.
type collector struct {
	mu   sync.Mutex
	msgs []wire.Msg
	from []object.SiteID
	ch   chan struct{}
}

func newCollector() *collector { return &collector{ch: make(chan struct{}, 1024)} }

func (c *collector) handle(from object.SiteID, m wire.Msg) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if c.count() >= n {
			return
		}
		select {
		case <-c.ch:
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (have %d)", n, c.count())
		}
	}
}

func pairOpts(t *testing.T, opts Options) (*TCP, *TCP, *collector, *collector) {
	t.Helper()
	return pairEach(t, opts, opts)
}

// pairEach starts two meshed endpoints, sites 1 and 2, each with its own
// options.
func pairEach(t *testing.T, o1, o2 Options) (*TCP, *TCP, *collector, *collector) {
	t.Helper()
	c1, c2 := newCollector(), newCollector()
	t1, err := ListenTCPOpts(1, "127.0.0.1:0", c1.handle, o1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ListenTCPOpts(2, "127.0.0.1:0", c2.handle, o2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t1.Close(); t2.Close() })
	t1.AddPeer(2, t2.Addr())
	t2.AddPeer(1, t1.Addr())
	return t1, t2, c1, c2
}

func pair(t *testing.T) (*TCP, *TCP, *collector, *collector) {
	t.Helper()
	return pairOpts(t, Options{})
}

func TestSendReceive(t *testing.T) {
	t1, _, _, c2 := pair(t)
	msg := &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body: `S (a, ?, ?) -> T`, ObjIDs: []object.ID{{Birth: 2, Seq: 3}},
		Start: 1, Token: []byte{1},
	}
	if err := t1.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	got, ok := c2.msgs[0].(*wire.Deref)
	if !ok || len(got.ObjIDs) != 1 || got.ObjIDs[0] != msg.ObjIDs[0] || got.Body != msg.Body {
		t.Errorf("got %#v", c2.msgs[0])
	}
	if c2.from[0] != 1 {
		t.Errorf("from = %v", c2.from[0])
	}
}

func TestBidirectional(t *testing.T) {
	t1, t2, c1, c2 := pair(t)
	for i := 0; i < 20; i++ {
		if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := t2.Send(1, &wire.Control{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c1.wait(t, 20)
	c2.wait(t, 20)
}

func TestConcurrentSenders(t *testing.T) {
	t1, _, _, c2 := pair(t)
	var wg sync.WaitGroup
	const per, workers = 25, 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := t1.Send(2, &wire.Control{QID: wire.QueryID{Origin: 1, Seq: 1}, Token: []byte{1, 2}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c2.wait(t, per*workers)
}

func TestUnknownPeer(t *testing.T) {
	t1, _, _, _ := pair(t)
	if err := t1.Send(9, &wire.Finish{}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	t1, _, _, _ := pair(t)
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(2, &wire.Finish{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	// Double close is fine.
	if err := t1.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestSendQueuesWhilePeerDown: with reliable delivery, sending to a dead
// peer is not an error — the frame is queued, the dial failure is cached
// with backoff, and delivery happens when the peer comes back.
func TestSendQueuesWhilePeerDown(t *testing.T) {
	opts := Options{RetransmitBase: 5 * time.Millisecond, DialBackoffBase: 5 * time.Millisecond}
	t1, t2, _, _ := pairOpts(t, opts)
	addr := t2.Addr()
	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}}); err != nil {
			t.Fatalf("send while peer down: %v", err)
		}
	}
	if got := t1.Pending(2); got < 5 {
		t.Errorf("pending = %d, want >= 5", got)
	}
	// The failed dial must leave cached backoff state (satellite fix: no
	// synchronous re-dial per message on the hot path).
	var fails int
	var lastErr error
	if err := waitfor.Until(5*time.Second, func() bool {
		var next time.Time
		fails, next, lastErr = t1.DialState(2)
		return fails > 0 && lastErr != nil && next.After(time.Now().Add(-time.Second))
	}); err != nil {
		t.Fatalf("dial backoff never cached: fails=%d err=%v", fails, lastErr)
	}

	// Peer comes back on the same address: queued frames are delivered.
	c3 := newCollector()
	t3, err := ListenTCP(2, addr, c3.handle)
	if err != nil {
		t.Skipf("rebind %s: %v", addr, err)
	}
	defer t3.Close()
	c3.wait(t, 5)
}

// TestReconnectAfterPeerRestart: a peer restarting on a new ephemeral port
// is re-registered via AddPeer and queued traffic flows to the new address.
func TestReconnectAfterPeerRestart(t *testing.T) {
	opts := Options{RetransmitBase: 5 * time.Millisecond, DialBackoffBase: 5 * time.Millisecond}
	c1 := newCollector()
	t1, err := ListenTCPOpts(1, "127.0.0.1:0", c1.handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	c2 := newCollector()
	t2, err := ListenTCPOpts(2, "127.0.0.1:0", c2.handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	t1.AddPeer(2, t2.Addr())
	if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)

	// Kill the peer; sends keep queueing.
	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: 2}}); err != nil {
		t.Fatalf("send while peer down: %v", err)
	}

	// Peer restarts (new ephemeral port); re-register and the queued frame
	// plus a fresh one both arrive.
	c3 := newCollector()
	t3, err := ListenTCPOpts(2, "127.0.0.1:0", c3.handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Close()
	t1.AddPeer(2, t3.Addr())
	if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: 3}}); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	c3.wait(t, 2)
}

// TestAddPeerKeepsConnectionForSameAddress: servers re-register a client's
// address on every Submit. An unchanged address must keep the live
// connection (no dial, no fresh ack reader per query); a changed one drops
// it.
func TestAddPeerKeepsConnectionForSameAddress(t *testing.T) {
	reg := metrics.NewRegistry()
	c1, c2 := newCollector(), newCollector()
	t1, err := ListenTCPOpts(1, "127.0.0.1:0", c1.handle, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := ListenTCP(2, "127.0.0.1:0", c2.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	dials := func() uint64 {
		s := reg.Snapshot()
		return s.Counters["transport_connects"] + s.Counters["transport_reconnects"]
	}
	for i := 0; i < 20; i++ {
		t1.AddPeer(2, t2.Addr())
		if err := t1.Send(2, &wire.Finish{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		c2.wait(t, i+1)
	}
	if got := dials(); got != 1 {
		t.Errorf("20 re-registrations of one address dialed %d times, want 1", got)
	}

	// The peer moves: same site id, new address. The old connection goes and
	// traffic flows to the new endpoint.
	c3 := newCollector()
	t3, err := ListenTCP(2, "127.0.0.1:0", c3.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Close()
	t1.AddPeer(2, t3.Addr())
	if err := t1.Send(2, &wire.Finish{}); err != nil {
		t.Fatal(err)
	}
	c3.wait(t, 1)
	if got := dials(); got != 2 {
		t.Errorf("dials after an address change = %d, want 2", got)
	}
}

// TestPreviousVersionFrameDropsConnection: a well-formed frame of the
// previous wire version is refused at its header and its connection
// dropped, while the same frame at the current version is delivered. A
// cluster runs one wire version.
func TestPreviousVersionFrameDropsConnection(t *testing.T) {
	t1, _, c1, _ := pair(t)
	frame := wire.AppendFrameMsg(nil, 2, 1, 1, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: 5}})
	prev := append([]byte(nil), frame...)
	prev[3] = wire.FrameMagic[3] - 1
	send := func(b []byte) net.Conn {
		raw, err := net.Dial("tcp", t1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { raw.Close() })
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := send(prev)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a previous-version frame left its connection open: %v", err)
	}
	if n := c1.count(); n != 0 {
		t.Fatalf("a previous-version frame delivered %d messages", n)
	}
	send(frame)
	c1.wait(t, 1)
	c1.mu.Lock()
	defer c1.mu.Unlock()
	if _, ok := c1.msgs[0].(*wire.Finish); !ok {
		t.Errorf("current-version frame delivered %#v, want the Finish", c1.msgs[0])
	}
}

// TestWrongMagicDropsConnection: frames without the protocol magic are
// rejected and the connection closed; correctly-framed peers still work.
func TestWrongMagicDropsConnection(t *testing.T) {
	t1, _, _, c2 := pair(t)
	raw, err := net.Dial("tcp", t1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A full header's worth of garbage (v1-era framing bytes, zero-padded).
	junk := make([]byte, 28)
	copy(junk, []byte{0, 0, 0, 2, 0, 0, 0, 9, 6, 1})
	if _, err := raw.Write(junk); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection; reads return EOF eventually.
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Error("expected connection close on wrong magic")
	}
	raw.Close()
	// Well-formed traffic still flows.
	if err := t1.Send(2, &wire.Finish{}); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
}

func TestLargeMessage(t *testing.T) {
	t1, _, _, c2 := pair(t)
	ids := make([]object.ID, 20000)
	for i := range ids {
		ids[i] = object.ID{Birth: 1, Seq: uint64(i)}
	}
	if err := t1.Send(2, &wire.Result{QID: wire.QueryID{Origin: 2, Seq: 1}, IDs: ids, Count: len(ids)}); err != nil {
		t.Fatal(err)
	}
	c2.wait(t, 1)
	got := c2.msgs[0].(*wire.Result)
	if len(got.IDs) != 20000 {
		t.Errorf("ids = %d", len(got.IDs))
	}
}

// chaosPayload is message i's token: a length and content that differ from
// message to message, so a frame whose bytes were overwritten, shifted or
// cut short while it waited for its ack cannot pass for any other.
func chaosPayload(i int) []byte {
	p := make([]byte, 1+(i*37)%300)
	for j := range p {
		p[j] = byte(i*131 + j*7)
	}
	return p
}

// TestExactlyOnceUnderDropsAndDups: with the chaos injector dropping,
// duplicating and delaying frames below the reliability layer, the handler
// still sees every message exactly once, and byte for byte as it was queued:
// unacked frames share one slab per peer that is compacted and reused while
// retransmissions (and the delayed copies the injector holds back) still
// need their bytes.
func TestExactlyOnceUnderDropsAndDups(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 11, DropRate: 0.25, DupRate: 0.25,
		DelayRate: 0.25, MinDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond})
	reg := metrics.NewRegistry()
	opts := Options{
		RetransmitBase: 3 * time.Millisecond,
		RetransmitMax:  30 * time.Millisecond,
		MaxAttempts:    200,
		Fault:          inj,
		Metrics:        reg,
	}
	t1, _, _, c2 := pairOpts(t, opts)

	// Half the messages go out one write each, half in batches of ten: the
	// injector judges every frame (and every ack coming back) on its own
	// either way.
	const total = 400
	for i := 0; i < total; i++ {
		send := t1.Send
		if i >= total/2 {
			send = t1.Queue
		}
		if err := send(2, &wire.Control{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}, Token: chaosPayload(i)}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			t1.Flush()
		}
	}
	c2.wait(t, total)
	// Let the retransmission queue drain and stray duplicates surface (the
	// count must hold still), then assert exactly-once.
	if err := waitfor.Until(10*time.Second, func() bool { return t1.Pending(2) == 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := waitfor.Stable(10*time.Second, 100*time.Millisecond, c2.count); err != nil {
		t.Fatal(err)
	}
	// A frame sent from bytes that had moved would not parse: the receiver
	// drops the connection on it, and the frame gets through on a later try.
	if got := reg.Snapshot().Counters["transport_reconnects"]; got != 0 {
		t.Errorf("%d reconnects: a frame reached the wire malformed", got)
	}
	c2.mu.Lock()
	defer c2.mu.Unlock()
	seen := make(map[uint64]int)
	for _, m := range c2.msgs {
		ctl := m.(*wire.Control)
		seen[ctl.QID.Seq]++
		if !bytes.Equal(ctl.Token, chaosPayload(int(ctl.QID.Seq))) {
			t.Errorf("seq %d delivered with a payload that is not the one queued", ctl.QID.Seq)
		}
	}
	if len(seen) != total {
		t.Fatalf("distinct messages = %d, want %d", len(seen), total)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Errorf("seq %d delivered %d times", seq, n)
		}
	}
}

// TestUnreliableSendBestEffort: SendUnreliable never retransmits — a
// heartbeat to a down peer vanishes without queueing.
func TestUnreliableSendBestEffort(t *testing.T) {
	t1, t2, _, c2 := pair(t)
	if err := t1.SendUnreliable(2, &wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// First unreliable send races the async dial; once the link is up
	// heartbeats flow. Keep nudging until one lands.
	if err := waitfor.Until(5*time.Second, func() bool {
		if c2.count() > 0 {
			return true
		}
		t1.SendUnreliable(2, &wire.Heartbeat{Seq: 2})
		return false
	}); err != nil {
		t.Fatal("heartbeat never delivered on live link")
	}
	if _, ok := c2.msgs[0].(*wire.Heartbeat); !ok {
		t.Fatalf("got %#v", c2.msgs[0])
	}

	if err := t2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t1.SendUnreliable(2, &wire.Heartbeat{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if got := t1.Pending(2); got != 0 {
		t.Errorf("unreliable send queued %d frames", got)
	}
}

// TestTransportMetrics: under drop/dup chaos the registry reports frames
// sent, retransmitted, deduped, and ack round trips; a clean second endpoint
// records a first connect but no reconnects.
func TestTransportMetrics(t *testing.T) {
	inj := chaos.NewInjector(chaos.Config{Seed: 7, DropRate: 0.3, DupRate: 0.3})
	reg := metrics.NewRegistry()
	opts := Options{
		RetransmitBase: 3 * time.Millisecond,
		RetransmitMax:  30 * time.Millisecond,
		MaxAttempts:    200,
		Fault:          inj,
		Metrics:        reg,
	}
	t1, _, _, c2 := pairOpts(t, opts)

	const total = 50
	for i := 0; i < total; i++ {
		if err := t1.Send(2, &wire.Finish{QID: wire.QueryID{Origin: 1, Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c2.wait(t, total)
	if err := waitfor.Until(10*time.Second, func() bool { return t1.Pending(2) == 0 }); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["transport_frames_sent"]; got != total {
		t.Errorf("frames_sent = %d, want %d", got, total)
	}
	// 30% drop over 50 frames makes a run with zero retransmissions
	// (p = 0.7^50) and a run with zero duplicate arrivals astronomically
	// unlikely; the seed is fixed anyway.
	if s.Counters["transport_frames_retransmitted"] == 0 {
		t.Error("no retransmissions recorded under 30% drop chaos")
	}
	if s.Counters["transport_frames_deduped"] == 0 {
		t.Error("no deduped frames recorded under 30% dup chaos")
	}
	// Both endpoints share the registry: c2's side admitted the 50 frames.
	if got := s.Counters["transport_frames_received"]; got != total {
		t.Errorf("frames_received = %d, want %d", got, total)
	}
	if s.Counters["transport_acks_received"] == 0 || s.Counters["transport_acks_sent"] == 0 {
		t.Error("no acks recorded")
	}
	if s.Counters["transport_writes"] == 0 {
		t.Error("no writes recorded")
	}
	if s.Counters["transport_connects"] == 0 {
		t.Error("no connects recorded")
	}
	// One round trip is observed per retired frame, however many frames an
	// ack retires.
	if rtt := s.Histograms["transport_ack_rtt_us"]; rtt.Count != total {
		t.Errorf("ack RTT observations = %d, want one per frame (%d)", rtt.Count, total)
	}
	if bad := reg.Unregistered(&t1.met); len(bad) > 0 {
		t.Errorf("transport instruments not from the registry: %v", bad)
	}
}
