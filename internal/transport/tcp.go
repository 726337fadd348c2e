// Package transport carries wire messages between HyperFile sites over real
// networks. The paper's prototype ran its servers on a network of IBM PC/RTs
// with TCP/IP; this package is the equivalent substrate, hardened for lossy
// links: framed messages over TCP with lazy outbound connections, an address
// book mapping site ids to endpoints, and an at-least-once delivery layer —
// per-peer monotonic sequence numbers, acknowledgements on the reverse path,
// retransmission with exponential backoff and jitter, and receiver-side
// dedup windows — that together give the site logic exactly-once semantics.
// Exactly-once matters here: the weighted-message termination detector
// conserves credit across messages, so a lost or duplicated frame would
// either hang a query forever or double-count credit.
//
// Frames use the v2 layout in wire.Frame (magic "HF\x00\x02", payload
// length, sender id, sender epoch, sequence number). Sequence numbers are
// per sender-receiver link; seq 0 marks unreliable frames (acks,
// heartbeats) that are never acked or retransmitted. The epoch identifies
// the sender's process incarnation so receivers reset dedup state when a
// peer restarts and its sequence numbers start over. A reader that sees a
// wrong magic — a stray client, an incompatible version — drops the
// connection immediately.
//
// Outbound connections dial lazily and asynchronously; a failed dial is
// cached with exponential backoff so a down peer costs one dial per backoff
// window, not one per message. Every frame write carries a write deadline
// so a stalled peer cannot wedge a sender goroutine. Send errors only for
// unknown peers, a closed transport, or backlog overflow — delivery trouble
// is handled by retransmission and, ultimately, by the failure detector
// layered above.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// maxFrame bounds incoming frame payloads (a result batch with many ids
// stays far below this).
const maxFrame = 16 << 20

// ErrUnknownPeer is returned when sending to a site with no registered
// address.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// ErrBacklog is returned when a peer has too many unacknowledged frames
// queued; the caller should treat the peer as overloaded or dead.
var ErrBacklog = errors.New("transport: unacked backlog full")

// Handler receives inbound messages. It is called from reader goroutines;
// implementations must be safe for concurrent use and must not block for
// long.
type Handler func(from object.SiteID, m wire.Msg)

// BufHandler receives inbound messages decoded in place over a pooled read
// buffer (wire.DecodeBorrowed): string and []byte fields of hot-path
// messages alias the buffer instead of copying. The handler takes ownership
// of the reference: it must call buf.Release() once the message — including
// every borrowed field — is no longer touched, even if processing is
// asynchronous. Retain/Release extend the lifetime across further handoffs.
type BufHandler func(from object.SiteID, m wire.Msg, buf *wire.ReadBuf)

// Fault decides per-frame fault injection below the reliability layer.
// chaos.Injector satisfies it; the interface is declared here structurally
// so neither package imports the other. Judge returns drop to discard the
// frame, otherwise copies >= 1 transmissions each delayed by delay. Acks
// honour only the drop verdict (a duplicated or delayed ack is
// indistinguishable from a retransmission, so injecting those adds nothing).
type Fault interface {
	Judge(from, to object.SiteID) (drop bool, copies int, delay time.Duration)
}

// Options tunes the reliability layer. Zero values take defaults.
type Options struct {
	// RetransmitBase is the initial retransmission delay; it doubles per
	// attempt (with ±25% jitter) up to RetransmitMax.
	RetransmitBase time.Duration // default 20ms
	RetransmitMax  time.Duration // default 1s
	// MaxAttempts caps transmissions per frame; past it the frame is
	// abandoned and the peer failure detector is trusted to notice.
	MaxAttempts int // default 30
	// WriteTimeout bounds every frame write so a stalled peer cannot wedge
	// a sender.
	WriteTimeout time.Duration // default 5s
	// DialTimeout bounds outbound connection attempts.
	DialTimeout time.Duration // default 3s
	// DialBackoffBase/Max pace re-dials to an unreachable peer; the cached
	// failure keeps the hot send path from re-dialing synchronously.
	DialBackoffBase time.Duration // default 50ms
	DialBackoffMax  time.Duration // default 2s
	// MaxUnacked bounds the per-peer retransmission queue; Send returns
	// ErrBacklog beyond it.
	MaxUnacked int // default 4096
	// Fault, when non-nil, injects faults on outbound frames (drop /
	// duplicate / delay) below the reliability layer, for chaos testing.
	Fault Fault
	// BufHandler, when non-nil, receives every inbound message in place of
	// the plain Handler, decoded borrowed over the pooled buffer it was read
	// into, and owns that buffer's reference (it must Release). Who owns the
	// bytes selects the decode: an endpoint without a BufHandler gets fully
	// copied messages it may keep forever, and the transport recycles the
	// read buffer before the Handler even runs.
	BufHandler BufHandler
	// Metrics, when non-nil, receives transport counters (frames sent /
	// retransmitted / deduped / abandoned, connects, dial failures) and the
	// ack round-trip histogram. Nil disables accounting.
	Metrics *metrics.Registry
}

// tcpMetrics caches the transport instruments; all fields are nil (no-op)
// without a registry.
type tcpMetrics struct {
	framesSent          *metrics.Counter
	framesRetransmitted *metrics.Counter
	framesUnreliable    *metrics.Counter
	framesReceived      *metrics.Counter
	framesDeduped       *metrics.Counter
	framesAbandoned     *metrics.Counter
	acksReceived        *metrics.Counter
	unknownMsgs         *metrics.Counter
	connects            *metrics.Counter
	reconnects          *metrics.Counter
	dialFails           *metrics.Counter
	ackRTTUS            *metrics.Histogram
}

func newTCPMetrics(reg *metrics.Registry) tcpMetrics {
	if reg == nil {
		return tcpMetrics{}
	}
	return tcpMetrics{
		framesSent:          reg.Counter("transport_frames_sent"),
		framesRetransmitted: reg.Counter("transport_frames_retransmitted"),
		framesUnreliable:    reg.Counter("transport_frames_unreliable"),
		framesReceived:      reg.Counter("transport_frames_received"),
		framesDeduped:       reg.Counter("transport_frames_deduped"),
		framesAbandoned:     reg.Counter("transport_frames_abandoned"),
		acksReceived:        reg.Counter("transport_acks_received"),
		unknownMsgs:         reg.Counter("hf_wire_unknown_msgs"),
		connects:            reg.Counter("transport_connects"),
		reconnects:          reg.Counter("transport_reconnects"),
		dialFails:           reg.Counter("transport_dial_fails"),
		ackRTTUS:            reg.Histogram("transport_ack_rtt_us"),
	}
}

func (o Options) withDefaults() Options {
	if o.RetransmitBase <= 0 {
		o.RetransmitBase = 20 * time.Millisecond
	}
	if o.RetransmitMax <= 0 {
		o.RetransmitMax = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 30
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.DialBackoffBase <= 0 {
		o.DialBackoffBase = 50 * time.Millisecond
	}
	if o.DialBackoffMax <= 0 {
		o.DialBackoffMax = 2 * time.Second
	}
	if o.MaxUnacked <= 0 {
		o.MaxUnacked = 4096
	}
	return o
}

// TCP is one endpoint: a listener for inbound frames and a set of lazily
// dialed outbound connections with reliable delivery.
type TCP struct {
	self    object.SiteID
	epoch   uint64
	ln      net.Listener
	handler Handler
	opts    Options
	met     tcpMetrics

	closed  atomic.Bool
	spawnMu sync.RWMutex // serializes goroutine spawn against Close
	stopCh  chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	peers   map[object.SiteID]*peer
	inbound map[net.Conn]struct{}
	dedup   map[object.SiteID]*dedupWindow
}

// peer holds the outbound state for one remote site. Lock ordering: p.mu
// may be acquired while already holding nothing or followed by t.mu — never
// acquire p.mu while holding t.mu.
type peer struct {
	id object.SiteID

	mu      sync.Mutex
	addr    string
	conn    net.Conn
	dialing bool
	nextSeq uint64
	pending []*pendingFrame // unacked frames, ascending seq
	// everConnected distinguishes a first connect from a reconnect in the
	// metrics.
	everConnected bool

	// Dial backoff cache: a failed dial records when the next attempt may
	// run, so messages to a down peer don't re-dial on the hot path.
	dialFails   int
	nextDialAt  time.Time
	lastDialErr error
}

// pendingFrame is one reliable frame awaiting acknowledgement.
type pendingFrame struct {
	seq      uint64
	data     []byte // fully framed bytes, header included
	attempts int
	nextAt   time.Time // earliest retransmission time
	// firstSent anchors the ack round-trip measurement; it includes any
	// time the frame spent queued behind a down link.
	firstSent time.Time
}

// dedupWindow tracks delivered sequence numbers from one sender epoch:
// everything <= floor has been delivered, plus a sparse set above it.
type dedupWindow struct {
	epoch uint64
	floor uint64
	seen  map[uint64]struct{}
}

// ListenTCP starts an endpoint for site self on addr (use "127.0.0.1:0" for
// an ephemeral port) with default options. The handler receives every
// inbound message exactly once.
func ListenTCP(self object.SiteID, addr string, handler Handler) (*TCP, error) {
	return ListenTCPOpts(self, addr, handler, Options{})
}

// ListenTCPOpts is ListenTCP with explicit reliability options.
func ListenTCPOpts(self object.SiteID, addr string, handler Handler, opts Options) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		self: self,
		// The epoch distinguishes this process incarnation from earlier
		// ones bound to the same site id, so receivers reset dedup state
		// instead of discarding our restarted sequence numbers as dups.
		epoch:   uint64(time.Now().UnixNano())<<8 | uint64(rand.Intn(256)),
		ln:      ln,
		handler: handler,
		opts:    opts.withDefaults(),
		stopCh:  make(chan struct{}),
		peers:   make(map[object.SiteID]*peer),
		inbound: make(map[net.Conn]struct{}),
		dedup:   make(map[object.SiteID]*dedupWindow),
	}
	t.met = newTCPMetrics(t.opts.Metrics)
	t.spawn(t.acceptLoop)
	t.spawn(t.retransmitLoop)
	return t, nil
}

// Self returns this endpoint's site id.
func (t *TCP) Self() object.SiteID { return t.self }

// Addr returns the bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// spawn starts fn under the waitgroup unless the transport is closed; the
// spawnMu read-lock makes the closed check and wg.Add atomic against Close.
func (t *TCP) spawn(fn func()) bool {
	t.spawnMu.RLock()
	if t.closed.Load() {
		t.spawnMu.RUnlock()
		return false
	}
	t.wg.Add(1)
	t.spawnMu.RUnlock()
	go func() {
		defer t.wg.Done()
		fn()
	}()
	return true
}

// AddPeer registers (or updates) the address of a site. Re-registering
// drops any cached connection and clears the dial backoff, so a restarted
// peer is re-dialed immediately; queued unacked frames survive and are
// retransmitted to the new address.
func (t *TCP) AddPeer(id object.SiteID, addr string) {
	t.mu.Lock()
	p := t.peers[id]
	if p == nil {
		p = &peer{id: id}
		t.peers[id] = p
	}
	t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.addr = addr
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
	p.dialFails, p.nextDialAt, p.lastDialErr = 0, time.Time{}, nil
}

// Send queues one message for reliable delivery to a peer and transmits it
// immediately when a connection is up (dialing in the background
// otherwise). A nil return means the message is queued and will be
// delivered exactly once unless the peer stays unreachable past the
// retransmission budget; it does NOT mean the peer has received it. Errors:
// ErrUnknownPeer, ErrClosed, ErrBacklog.
func (t *TCP) Send(to object.SiteID, m wire.Msg) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p == nil {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) >= t.opts.MaxUnacked {
		return fmt.Errorf("%w: %d frames queued to %v", ErrBacklog, len(p.pending), to)
	}
	p.nextSeq++
	// Encode straight into the frame buffer: the pending frame owns these
	// bytes until acked, so there is nothing to pool, but the separate
	// payload temporary AppendFrame would need is gone.
	data := wire.AppendFrameMsg(make([]byte, 0, 128), t.self, t.epoch, p.nextSeq, m)
	now := time.Now()
	pf := &pendingFrame{seq: p.nextSeq, data: data, attempts: 1, nextAt: now.Add(t.backoff(1)), firstSent: now}
	t.met.framesSent.Inc()
	p.pending = append(p.pending, pf)
	if t.ensureConnLocked(p) != nil {
		// lint:ignore lockhold first transmission writes under p.mu by design; bounded by WriteTimeout (writeRawLocked sets a deadline)
		t.writeLocked(p, data)
	}
	return nil
}

// SendUnreliable transmits one message best-effort: no sequence number, no
// ack, no retransmission, silently skipped while the peer connection is
// down. Heartbeats use this — a lost heartbeat is itself the signal.
func (t *TCP) SendUnreliable(to object.SiteID, m wire.Msg) error {
	if t.closed.Load() {
		return ErrClosed
	}
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p == nil {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	// Not pooled: a fault-injected delayed write may retain data past this
	// call (writeLocked's spawned goroutine), so the buffer cannot be
	// recycled here. AppendFrameMsg still avoids the payload temporary.
	data := wire.AppendFrameMsg(nil, t.self, t.epoch, 0, m)
	t.met.framesUnreliable.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.ensureConnLocked(p) != nil {
		// lint:ignore lockhold best-effort write under p.mu by design; bounded by WriteTimeout (writeRawLocked sets a deadline)
		t.writeLocked(p, data)
	}
	return nil
}

// DialState reports the cached dial-failure state for a peer: consecutive
// failed dials, the earliest next attempt, and the last error. All zero
// when the peer is healthy or unknown.
func (t *TCP) DialState(id object.SiteID) (fails int, next time.Time, lastErr error) {
	t.mu.Lock()
	p := t.peers[id]
	t.mu.Unlock()
	if p == nil {
		return 0, time.Time{}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dialFails, p.nextDialAt, p.lastDialErr
}

// Pending reports the number of unacknowledged frames queued to a peer.
func (t *TCP) Pending(id object.SiteID) int {
	t.mu.Lock()
	p := t.peers[id]
	t.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// ensureConnLocked returns the live connection to p, starting a background
// dial (subject to the backoff cache) when there is none. Callers hold
// p.mu.
func (t *TCP) ensureConnLocked(p *peer) net.Conn {
	if p.conn != nil {
		return p.conn
	}
	if p.dialing || p.addr == "" || time.Now().Before(p.nextDialAt) {
		return nil
	}
	p.dialing = true
	addr := p.addr
	if !t.spawn(func() { t.dialPeer(p, addr) }) {
		p.dialing = false
	}
	return nil
}

// dialPeer dials addr off the send path and installs the connection; a
// failure is cached with exponential backoff so the next sends skip the
// dial entirely until the window passes.
func (t *TCP) dialPeer(p *peer, addr string) {
	c, err := net.DialTimeout("tcp", addr, t.opts.DialTimeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dialing = false
	if err != nil {
		p.dialFails++
		p.lastDialErr = err
		t.met.dialFails.Inc()
		b := t.opts.DialBackoffBase << min(p.dialFails-1, 10)
		if b <= 0 || b > t.opts.DialBackoffMax {
			b = t.opts.DialBackoffMax
		}
		p.nextDialAt = time.Now().Add(b)
		return
	}
	if t.closed.Load() || p.addr != addr || p.conn != nil {
		_ = c.Close()
		return
	}
	p.dialFails, p.nextDialAt, p.lastDialErr = 0, time.Time{}, nil
	p.conn = c
	if p.everConnected {
		t.met.reconnects.Inc()
	} else {
		t.met.connects.Inc()
		p.everConnected = true
	}
	if !t.spawn(func() { t.ackLoop(p, c) }) {
		_ = c.Close()
		p.conn = nil
		return
	}
	// Flush everything queued while the link was down; the regular
	// retransmission schedule takes over from here.
	now := time.Now()
	for _, pf := range p.pending {
		pf.attempts++
		pf.nextAt = now.Add(t.backoff(pf.attempts))
		t.met.framesRetransmitted.Inc()
		// lint:ignore lockhold reconnect flush writes under p.mu by design; bounded by WriteTimeout (writeRawLocked sets a deadline)
		t.writeLocked(p, pf.data)
	}
}

// writeLocked pushes one framed message through the fault filter and onto
// the wire. Callers hold p.mu.
func (t *TCP) writeLocked(p *peer, data []byte) {
	drop, copies, delay := t.judge(p.id)
	if drop {
		return
	}
	if delay <= 0 {
		for i := 0; i < copies; i++ {
			t.writeRawLocked(p, data)
		}
		return
	}
	c := p.conn
	t.spawn(func() {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-t.stopCh:
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.conn == c && c != nil {
			for i := 0; i < copies; i++ {
				// lint:ignore lockhold fault-injected delayed write re-takes p.mu by design; bounded by WriteTimeout
				t.writeRawLocked(p, data)
			}
		}
	})
}

// writeRawLocked writes framed bytes with a deadline; a write error drops
// the connection so the retransmission path re-dials. Callers hold p.mu.
func (t *TCP) writeRawLocked(p *peer, data []byte) {
	c := p.conn
	if c == nil {
		return
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	if _, err := c.Write(data); err != nil {
		_ = c.Close()
		if p.conn == c {
			p.conn = nil
		}
	}
}

// backoff returns the delay before transmission attempt+1, exponential with
// ±25% jitter.
func (t *TCP) backoff(attempts int) time.Duration {
	d := t.opts.RetransmitBase << min(attempts-1, 20)
	if d <= 0 || d > t.opts.RetransmitMax {
		d = t.opts.RetransmitMax
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// judge consults the fault hook for an outbound frame to id.
func (t *TCP) judge(id object.SiteID) (drop bool, copies int, delay time.Duration) {
	if t.opts.Fault == nil {
		return false, 1, 0
	}
	return t.opts.Fault.Judge(t.self, id)
}

// retransmitLoop periodically rewrites unacked frames that are past their
// backoff, abandoning frames that exhaust MaxAttempts.
func (t *TCP) retransmitLoop() {
	tick := t.opts.RetransmitBase / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-ticker.C:
		}
		t.mu.Lock()
		peers := make([]*peer, 0, len(t.peers))
		for _, p := range t.peers {
			peers = append(peers, p)
		}
		t.mu.Unlock()
		for _, p := range peers {
			p.mu.Lock()
			if len(p.pending) == 0 {
				p.mu.Unlock()
				continue
			}
			c := t.ensureConnLocked(p)
			now := time.Now()
			keep := p.pending[:0]
			for _, pf := range p.pending {
				if pf.attempts >= t.opts.MaxAttempts {
					t.met.framesAbandoned.Inc()
					continue // abandoned; the failure detector takes over
				}
				keep = append(keep, pf)
				if c != nil && now.After(pf.nextAt) {
					pf.attempts++
					pf.nextAt = now.Add(t.backoff(pf.attempts))
					t.met.framesRetransmitted.Inc()
					// lint:ignore lockhold retransmission writes under p.mu by design; bounded by WriteTimeout (writeRawLocked sets a deadline)
					t.writeLocked(p, pf.data)
				}
			}
			clear(p.pending[len(keep):])
			p.pending = keep
			p.mu.Unlock()
		}
	}
}

// ackLoop reads acknowledgements arriving on the reverse path of an
// outbound connection and retires the matching pending frames.
func (t *TCP) ackLoop(p *peer, c net.Conn) {
	for {
		m, err := t.readAck(c)
		if err != nil {
			break
		}
		ack, ok := m.(*wire.Ack)
		if !ok {
			// Only acks travel on the reverse path; anything else is a
			// protocol bug worth a counter, not a silent drop.
			t.met.unknownMsgs.Inc()
			continue
		}
		p.mu.Lock()
		for i, pf := range p.pending {
			if pf.seq == ack.Seq {
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				t.met.acksReceived.Inc()
				t.met.ackRTTUS.ObserveDuration(time.Since(pf.firstSent))
				break
			}
		}
		p.mu.Unlock()
	}
	_ = c.Close()
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
}

// readAck reads one reverse-path frame and decodes it. The payload lands in
// a pooled buffer released before returning: the copying decode keeps no
// reference into it.
func (t *TCP) readAck(c net.Conn) (wire.Msg, error) {
	fr, buf, err := wire.ReadFrameBuf(c, maxFrame)
	if err != nil {
		return nil, err
	}
	m, err := wire.Decode(fr.Payload)
	buf.Release()
	return m, err
}

func (t *TCP) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		if !t.spawn(func() { t.readLoop(c) }) {
			_ = c.Close()
			return
		}
	}
}

// readLoop consumes frames from one inbound connection: unreliable frames
// (seq 0) go straight to the handler, reliable frames are acked on the same
// connection and delivered through the dedup window so the handler sees
// each message exactly once. Corrupt frames poison the stream and drop the
// connection; the sender's retransmissions arrive on a fresh one.
func (t *TCP) readLoop(c net.Conn) {
	defer func() {
		_ = c.Close()
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	for {
		fr, buf, err := wire.ReadFrameBuf(c, maxFrame)
		if err != nil {
			return
		}
		var m wire.Msg
		if t.opts.BufHandler != nil {
			m, err = wire.DecodeBorrowed(fr.Payload)
		} else {
			m, err = wire.Decode(fr.Payload)
		}
		if err != nil {
			buf.Release()
			return
		}
		if fr.Seq == 0 {
			if _, isAck := m.(*wire.Ack); !isAck {
				t.deliver(fr.From, m, buf)
			} else {
				buf.Release()
			}
			continue
		}
		// Always ack, even duplicates: the earlier ack may have been lost.
		t.writeAck(c, fr.From, fr.Seq)
		if t.dedupAdmit(fr.From, fr.Epoch, fr.Seq) {
			t.met.framesReceived.Inc()
			t.deliver(fr.From, m, buf)
		} else {
			t.met.framesDeduped.Inc()
			buf.Release()
		}
	}
}

// deliver hands one admitted inbound message to the application layer. A
// registered BufHandler takes the message, borrowed fields and all, together
// with the buffer reference. A plain Handler got a copying decode and may
// keep the message, so the buffer recycles before it runs.
func (t *TCP) deliver(from object.SiteID, m wire.Msg, buf *wire.ReadBuf) {
	if t.opts.BufHandler != nil {
		t.opts.BufHandler(from, m, buf)
		return
	}
	buf.Release()
	t.handler(from, m)
}

// writeAck sends an ack for seq back on the inbound connection (the reverse
// path — the receiver may have no dialable address for the sender). Only
// the read loop writes to an inbound connection, so no locking is needed.
func (t *TCP) writeAck(c net.Conn, to object.SiteID, seq uint64) {
	if drop, _, _ := t.judge(to); drop {
		return
	}
	b := wire.GetBuf()
	data := wire.AppendFrameMsg(*b, t.self, t.epoch, 0, &wire.Ack{Seq: seq})
	_ = c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	_, _ = c.Write(data) // an error surfaces as a read failure shortly after
	*b = data[:0]
	wire.PutBuf(b)
}

// dedupAdmit records one reliable frame and reports whether it is new. A
// changed epoch means the sender restarted: its sequence space started
// over, so the window resets.
func (t *TCP) dedupAdmit(from object.SiteID, epoch, seq uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.dedup[from]
	if w == nil || w.epoch != epoch {
		w = &dedupWindow{epoch: epoch, seen: make(map[uint64]struct{})}
		t.dedup[from] = w
	}
	if seq <= w.floor {
		return false
	}
	if _, dup := w.seen[seq]; dup {
		return false
	}
	w.seen[seq] = struct{}{}
	for {
		if _, ok := w.seen[w.floor+1]; !ok {
			break
		}
		delete(w.seen, w.floor+1)
		w.floor++
	}
	return true
}

// Close shuts the listener and all connections, stops retransmission, and
// waits for every goroutine to drain. Unacked frames are discarded.
func (t *TCP) Close() error {
	t.spawnMu.Lock()
	already := t.closed.Swap(true)
	t.spawnMu.Unlock()
	if already {
		return nil
	}
	close(t.stopCh)
	err := t.ln.Close()
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.pending = nil
		p.mu.Unlock()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}
