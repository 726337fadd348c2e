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
// Frames use the layout in wire.Frame (magic "HF\x00\x03", payload
// length, sender id, sender epoch, sequence number). Sequence numbers are
// per sender-receiver link; seq 0 marks unreliable frames (acks,
// heartbeats) that are never acked or retransmitted. The epoch identifies
// the sender's process incarnation so receivers reset dedup state when a
// peer restarts and its sequence numbers start over. A reader that sees a
// wrong magic — a stray client, a peer of another wire version — drops the
// connection immediately.
//
// The unit of I/O is the batch, not the frame. A filtering query is a storm
// of ~150-byte messages, so a syscall per frame costs more than the frame's
// processing. On the way out a message is encoded when it is queued (Queue,
// or Send = Queue + flush of that peer) — onto the peer's sendWindow, which
// keeps the bytes for retransmission without an allocation per frame, and
// the caller may recycle whatever the message aliased as soon as Queue
// returns — and the framed bytes wait in a per-peer buffer that leaves in
// one write, under one deadline, at the next Flush. On the way in both
// directions read through a bufio.Reader, so one read(2) drains every frame
// the kernel holds. Acknowledgements are owed per read, not per frame: when
// a reader has to go back to the kernel for more bytes it writes
// — after holding on for RetransmitBase/8 in case more frames come to share
// it — one cumulative wire.Ack: the dedup floor, "everything at or below
// this sequence number has been handed to the handler, exactly once", plus
// a selective ack for each frame that arrived above a gap (only loss or
// reordering produces those). A duplicate at or below the floor is answered
// by the floor again, since the ack that should have retired it may be the
// one that was lost. The sender retires the whole acknowledged prefix of its
// pending queue per ack; a lost cumulative ack is healed by the next one.
// The same boundary is the receiver's: Options.Idle runs there, so a server
// can do, on the reader's goroutine, the work that one read delivered.
// Fault injection stays per frame: every frame and every ack is judged on
// its own, and a dropped one never enters its batch.
//
// Outbound connections dial lazily and asynchronously; a failed dial is
// cached with exponential backoff so a down peer costs one dial per backoff
// window, not one per message. Every write carries a write deadline so a
// stalled peer cannot wedge a sender goroutine. Send errors only for
// unknown peers, a closed transport, or backlog overflow — delivery trouble
// is handled by retransmission and, ultimately, by the failure detector
// layered above.
package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
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

// maxBatchBytes bounds a peer's outbound buffer: queueing past it forces a
// flush, and a frame at least this large is written on its own instead of
// being copied in. It sits well under a loopback socket buffer, so a full
// batch still leaves in one write.
const maxBatchBytes = 32 << 10

// ackHoldDiv sets how long an owed acknowledgement may wait for later frames
// to share it: RetransmitBase/ackHoldDiv (2.5 ms by default), far enough
// under the earliest retransmission (0.75 × RetransmitBase) that a held ack
// never provokes one.
const ackHoldDiv = 8

// readBufBytes sizes the buffered reader of an inbound connection: one
// read(2) takes up to two full outbound batches.
const readBufBytes = 64 << 10

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
	// WriteTimeout bounds every write (a batch of frames or of acks) so a
	// stalled peer cannot wedge a sender.
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
	// Idle, when non-nil, runs on an inbound reader's goroutine at every read
	// boundary: the reader has handed out every frame its last read(2)
	// brought and is about to go back to the kernel, before it holds or
	// writes the acks it owes. A receiver that only queued what the handler
	// delivered runs that work here, once per read rather than once per
	// frame, on the goroutine that read it. It holds no transport lock, so
	// it may Queue, Send and Flush; the reader reads nothing until it
	// returns.
	Idle func()
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
	writes              *metrics.Counter
	acksSent            *metrics.Counter
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
		writes:              reg.Counter("transport_writes"),
		acksSent:            reg.Counter("transport_acks_sent"),
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

	// start anchors the retransmission clock: pending frames keep their
	// deadlines as monotonic nanoseconds since start (see sendWindow).
	start   time.Time
	closed  atomic.Bool
	spawnMu sync.RWMutex // serializes goroutine spawn against Close
	stopCh  chan struct{}
	wg      sync.WaitGroup

	mu    sync.Mutex
	peers map[object.SiteID]*peer
	// peerList holds the same peers as an immutable slice (replaced, never
	// appended in place), so Flush and the retransmission tick walk them
	// without allocating or holding mu.
	peerList []*peer
	inbound  map[net.Conn]struct{}
	dedup    map[object.SiteID]*dedupWindow
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
	pending sendWindow // unacked frames, ascending seq
	// out holds framed bytes queued for the next flush. It is non-empty only
	// while conn is up: losing the connection discards it, because every
	// reliable frame in it is also in pending and the connect-time flush
	// sends those.
	out []byte
	// outReliable records that out carries at least one reliable frame (the
	// transport_writes counter leaves heartbeat-only writes out).
	outReliable bool
	// everConnected distinguishes a first connect from a reconnect in the
	// metrics.
	everConnected bool

	// Dial backoff cache: a failed dial records when the next attempt may
	// run, so messages to a down peer don't re-dial on the hot path.
	dialFails   int
	nextDialAt  time.Time
	lastDialErr error
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
		start:   time.Now(),
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

// AddPeer registers (or updates) the address of a site. A changed address
// drops any cached connection, so a peer restarted elsewhere is re-dialed at
// once; re-registering the address already on file keeps the live connection
// (servers re-learn a client's address from every Submit). Either way the
// dial backoff is cleared, and queued unacked frames survive to be
// retransmitted.
func (t *TCP) AddPeer(id object.SiteID, addr string) {
	t.mu.Lock()
	p := t.peers[id]
	if p == nil {
		p = &peer{id: id}
		t.peers[id] = p
		t.peerList = append(t.peerList[:len(t.peerList):len(t.peerList)], p)
	}
	t.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addr != addr {
		p.addr = addr
		if p.conn != nil {
			dropConnLocked(p, p.conn)
		}
	}
	p.dialFails, p.nextDialAt, p.lastDialErr = 0, time.Time{}, nil
}

// peer returns the registered peer for id, or nil.
func (t *TCP) peer(id object.SiteID) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[id]
}

// peerFor resolves a destination for the send paths.
func (t *TCP) peerFor(to object.SiteID) (*peer, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	p := t.peer(to)
	if p == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	return p, nil
}

// peerSnapshot returns the current peers; the slice is immutable.
func (t *TCP) peerSnapshot() []*peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peerList
}

// Send queues one message for reliable delivery to a peer and transmits it
// (with anything else queued to that peer) immediately when a connection is
// up, dialing in the background otherwise. A nil return means the message is
// queued and will be delivered exactly once unless the peer stays
// unreachable past the retransmission budget; it does NOT mean the peer has
// received it. Errors: ErrUnknownPeer, ErrClosed, ErrBacklog.
func (t *TCP) Send(to object.SiteID, m wire.Msg) error {
	p, err := t.peerFor(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// lint:ignore lockhold a frame that overflows the batch is written under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
	if err := t.queueLocked(p, m); err != nil {
		return err
	}
	// lint:ignore lockhold the batch write runs under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
	t.flushLocked(p)
	return nil
}

// Queue is Send without the write: the message is encoded now — so the
// caller may recycle anything m aliases as soon as Queue returns — and its
// frame waits in the peer's outbound buffer until Flush (or a Send to the
// same peer, or the buffer's byte bound) puts the whole batch on the wire in
// one write. A caller that queues must Flush before it blocks; the
// retransmission tick flushes stragglers within RetransmitBase regardless.
func (t *TCP) Queue(to object.SiteID, m wire.Msg) error {
	p, err := t.peerFor(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// lint:ignore lockhold a frame that overflows the batch is written under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
	return t.queueLocked(p, m)
}

// Flush writes every peer's queued frames, one write per peer. It is safe
// for concurrent use with Send, Queue and other Flushes.
func (t *TCP) Flush() {
	for _, p := range t.peerSnapshot() {
		p.mu.Lock()
		// lint:ignore lockhold the batch write runs under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
		t.flushLocked(p)
		p.mu.Unlock()
	}
}

// queueLocked assigns the next sequence number, encodes m into a pending
// frame and, when the link is up, batches its first transmission. Callers
// hold p.mu.
func (t *TCP) queueLocked(p *peer, m wire.Msg) error {
	if p.pending.unacked >= t.opts.MaxUnacked {
		return fmt.Errorf("%w: %d frames queued to %v", ErrBacklog, p.pending.unacked, p.id)
	}
	p.nextSeq++
	// Encode straight onto the peer's slab: the window owns these bytes
	// until they are acked, and a frame costs no allocation of its own.
	now := t.now()
	pf := p.pending.push(t.self, t.epoch, p.nextSeq, m, now, now+int64(t.backoff(1)))
	t.met.framesSent.Inc()
	if t.ensureConnLocked(p) != nil {
		t.transmitLocked(p, pf, now)
	}
	return nil
}

// now is the retransmission clock: monotonic nanoseconds since the
// transport started.
func (t *TCP) now() int64 { return int64(time.Since(t.start)) }

// SendUnreliable transmits one message best-effort: no sequence number, no
// ack, no retransmission, silently skipped while the peer connection is
// down. Heartbeats use this — a lost heartbeat is itself the signal.
func (t *TCP) SendUnreliable(to object.SiteID, m wire.Msg) error {
	p, err := t.peerFor(to)
	if err != nil {
		return err
	}
	// Not pooled: a fault-injected delayed transmission may retain data past
	// this call (batchLocked's spawned goroutine), so the buffer cannot be
	// recycled here. AppendFrameMsg still avoids the payload temporary.
	data := wire.AppendFrameMsg(nil, t.self, t.epoch, 0, m)
	t.met.framesUnreliable.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.ensureConnLocked(p) != nil {
		// lint:ignore lockhold best-effort write under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
		t.batchLocked(p, data, false)
		// lint:ignore lockhold best-effort write under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
		t.flushLocked(p)
	}
	return nil
}

// DialState reports the cached dial-failure state for a peer: consecutive
// failed dials, the earliest next attempt, and the last error. All zero
// when the peer is healthy or unknown.
func (t *TCP) DialState(id object.SiteID) (fails int, next time.Time, lastErr error) {
	p := t.peer(id)
	if p == nil {
		return 0, time.Time{}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dialFails, p.nextDialAt, p.lastDialErr
}

// Pending reports the number of unacknowledged frames queued to a peer.
func (t *TCP) Pending(id object.SiteID) int {
	p := t.peer(id)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending.unacked
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
		dropConnLocked(p, c)
		return
	}
	// Send everything queued while the link was down, as one batch; the
	// regular retransmission schedule takes over from here. The outbound
	// buffer is empty at this point (it never outlives a connection), so
	// each frame goes out exactly once.
	now := t.now()
	live := p.pending.live()
	for i := range live {
		if pf := &live[i]; !pf.done {
			// lint:ignore lockhold connect flush writes under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
			t.transmitLocked(p, pf, now)
		}
	}
	// lint:ignore lockhold connect flush writes under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
	t.flushLocked(p)
}

// transmitLocked hands one pending frame to the link once more: it advances
// the retransmission schedule and batches the frame's bytes. Only a frame
// that has been handed over before counts as a retransmission — one that
// waited behind a down link is sent for the first time by the connect
// flush. Callers hold p.mu with the connection up.
func (t *TCP) transmitLocked(p *peer, pf *pendingFrame, now int64) {
	if pf.attempts > 0 {
		t.met.framesRetransmitted.Inc()
	}
	pf.attempts++
	pf.nextAt = now + int64(t.backoff(int(pf.attempts)))
	t.batchLocked(p, p.pending.data(pf), true)
}

// batchLocked pushes one framed message through the fault filter into the
// outbound buffer: a dropped frame never enters the batch, a duplicated one
// enters it twice, a delayed one joins (and flushes) a later batch. data is
// only borrowed (a reliable frame's bytes live on the peer's slab, which
// moves and is reused), so the delayed path, the one that outlives the call,
// takes a copy. Callers hold p.mu.
func (t *TCP) batchLocked(p *peer, data []byte, reliable bool) {
	drop, copies, delay := t.judge(p.id)
	if drop {
		return
	}
	if delay <= 0 {
		for i := 0; i < copies; i++ {
			t.appendOutLocked(p, data, reliable)
		}
		return
	}
	data = bytes.Clone(data)
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
				t.appendOutLocked(p, data, reliable)
			}
			// lint:ignore lockhold fault-injected delayed write re-takes p.mu by design; bounded by WriteTimeout
			t.flushLocked(p)
		}
	})
}

// appendOutLocked adds framed bytes to the outbound buffer, flushing first
// when they would take it past maxBatchBytes. Callers hold p.mu.
func (t *TCP) appendOutLocked(p *peer, data []byte, reliable bool) {
	if len(p.out)+len(data) > maxBatchBytes {
		t.flushLocked(p)
	}
	switch {
	case p.conn == nil:
		// That flush lost the link. Nothing may wait in out across a
		// reconnect; a reliable frame is in pending and goes out then.
	case len(data) >= maxBatchBytes:
		t.writeLocked(p, data, reliable)
	default:
		p.out = append(p.out, data...)
		p.outReliable = p.outReliable || reliable
	}
}

// flushLocked writes the outbound buffer, if any, in one write. Callers
// hold p.mu.
func (t *TCP) flushLocked(p *peer) {
	if len(p.out) == 0 {
		return
	}
	t.writeLocked(p, p.out, p.outReliable)
	p.out, p.outReliable = p.out[:0], false
}

// writeLocked writes framed bytes with a deadline; a write error drops the
// connection so the retransmission path re-dials. Callers hold p.mu.
func (t *TCP) writeLocked(p *peer, data []byte, reliable bool) {
	c := p.conn
	if c == nil {
		return
	}
	if reliable {
		t.met.writes.Inc()
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	if _, err := c.Write(data); err != nil {
		dropConnLocked(p, c)
	}
}

// dropConnLocked closes c and, if it is still p's connection, forgets it
// together with the outbound buffer: the reliable frames in there are all
// in pending, and the next connect sends those. Callers hold p.mu.
func dropConnLocked(p *peer, c net.Conn) {
	_ = c.Close()
	if p.conn == c {
		p.conn = nil
		p.out, p.outReliable = p.out[:0], false
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

// retransmitLoop periodically re-batches unacked frames that are past their
// backoff, abandoning frames that exhaust MaxAttempts, and flushes whatever
// each peer has queued — its own retransmissions and any frame a caller
// queued without flushing.
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
		for _, p := range t.peerSnapshot() {
			p.mu.Lock()
			if p.pending.unacked > 0 {
				c := t.ensureConnLocked(p)
				now := t.now()
				live := p.pending.live()
				for i := range live {
					pf := &live[i]
					switch {
					case pf.done:
					case int(pf.attempts) >= t.opts.MaxAttempts:
						t.met.framesAbandoned.Inc()
						p.pending.retire(pf) // abandoned; the failure detector takes over
					case c != nil && now > pf.nextAt:
						// lint:ignore lockhold retransmission writes under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
						t.transmitLocked(p, pf, now)
					}
				}
				p.pending.trim()
			}
			// lint:ignore lockhold retransmission writes under p.mu by design; bounded by WriteTimeout (writeLocked sets a deadline)
			t.flushLocked(p)
			p.mu.Unlock()
		}
	}
}

// ackLoop reads acknowledgements arriving on the reverse path of an
// outbound connection and retires the pending frames they cover.
func (t *TCP) ackLoop(p *peer, c net.Conn) {
	br := bufio.NewReader(c)
	for {
		m, err := t.readAck(br)
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
		t.met.acksReceived.Inc()
		p.mu.Lock()
		t.retireLocked(p, ack)
		p.mu.Unlock()
	}
	p.mu.Lock()
	dropConnLocked(p, c)
	p.mu.Unlock()
}

// retireLocked drops the pending frames an ack covers: the whole prefix at
// or below its cumulative floor, then the one selectively acknowledged frame
// above it, if any. pending ascends by seq, so neither needs a scan of the
// frames that stay. Callers hold p.mu.
func (t *TCP) retireLocked(p *peer, ack *wire.Ack) {
	now := t.now()
	retire := func(pf *pendingFrame) {
		if p.pending.retire(pf) {
			t.met.ackRTTUS.ObserveDuration(time.Duration(now - pf.firstSent))
		}
	}
	live := p.pending.live()
	n := 0
	for ; n < len(live) && live[n].seq <= ack.Cum; n++ {
		retire(&live[n])
	}
	if ack.Seq > ack.Cum {
		live = live[n:]
		i := sort.Search(len(live), func(i int) bool { return live[i].seq >= ack.Seq })
		if i < len(live) && live[i].seq == ack.Seq {
			retire(&live[i])
		}
	}
	p.pending.trim()
}

// readAck reads one reverse-path frame and decodes it. The payload lands in
// a pooled buffer released before returning: the copying decode keeps no
// reference into it.
func (t *TCP) readAck(r *bufio.Reader) (wire.Msg, error) {
	fr, buf, err := wire.ReadFrameBuf(r, maxFrame)
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

// inboundConn is the read side of one accepted connection: the source the
// buffered frame reader fills from, and the acknowledgements owed to the
// sender whose frames have been consumed since the last fill. Only the read
// loop's goroutine touches it (it is also the only writer on the connection),
// so it needs no lock.
type inboundConn struct {
	t *TCP
	c net.Conn

	// from/epoch identify the sender the owed acks go to; owed is set once a
	// reliable frame of theirs has been consumed.
	from  object.SiteID
	epoch uint64
	owed  bool
	since time.Time // when the oldest owed ack became owed
	cum   uint64    // that sender's dedup floor as of its last frame
	sel   []uint64  // sequence numbers consumed while above the floor
	// armed is the read deadline last set on the connection (zero: none).
	// A fill re-arms only when the deadline it wants differs, so the fills
	// of one hold share one SetReadDeadline and one runtime timer.
	armed time.Time
}

// Read fills the buffered reader. The reader comes here only when it has
// handed out everything it held and must go back to the kernel, which makes
// this the place to settle what is owed: at most one ack write per read(2),
// however many frames the last one brought. Owed acks are not written at
// once, though. They wait — the read takes a deadline — for up to
// RetransmitBase/ackHoldDiv from the oldest, so that traffic arriving one
// frame at a time (a query hopping serially between sites) shares acks too;
// if frames keep coming, the deadline of the next fill has already passed
// and the acks go out then. A frame is always delivered before its ack is
// held, so the hold adds nothing to a message's latency. The Idle hook runs
// first, once per read: whatever the frames just delivered set off is done,
// and flushed, before the reader holds its acks or blocks.
func (in *inboundConn) Read(b []byte) (int, error) {
	in.t.idle()
	for {
		var until time.Time // zero: wait for bytes indefinitely
		if in.owed {
			until = in.since.Add(in.t.opts.RetransmitBase / ackHoldDiv)
		}
		if !until.Equal(in.armed) {
			_ = in.c.SetReadDeadline(until)
			in.armed = until
		}
		// Close interrupts a reader by moving its deadline into the past,
		// not by closing the connection under it, so that the acks a
		// departing endpoint still owes get written. It marks the transport
		// closed first: a deadline set above either precedes Close's, and
		// the read below fails at once, or finds the mark here; a deadline
		// left as armed leaves Close's in place.
		if in.t.closed.Load() {
			in.flushAcks()
			return 0, ErrClosed
		}
		n, err := in.c.Read(b)
		if n > 0 || !in.owed || !errors.Is(err, os.ErrDeadlineExceeded) {
			return n, err
		}
		in.flushAcks() // the hold ran out with nothing more to read
	}
}

// owe records that the frame (from, epoch, seq) is to be acknowledged, floor
// being the sender's dedup floor once the frame was admitted or recognised.
// Duplicates are owed too: the earlier ack may have been lost. At or below
// the floor the cumulative ack covers it; above — past a gap — it gets a
// selective ack, so the sender stops retransmitting it while the gap heals.
func (in *inboundConn) owe(from object.SiteID, epoch, seq, floor uint64) {
	if in.owed && (from != in.from || epoch != in.epoch) {
		// One connection carries one sender incarnation; should that ever
		// not hold, acks must not mix two sequence spaces.
		in.flushAcks()
	}
	if !in.owed {
		in.since = time.Now()
	}
	in.from, in.epoch, in.owed, in.cum = from, epoch, true, floor
	if seq > floor {
		in.sel = append(in.sel, seq)
	}
}

// flushAcks writes the owed acknowledgements back on the inbound connection
// (the reverse path — the receiver may have no dialable address for the
// sender) in one write: the cumulative floor, riding on a selective ack for
// each frame still above it. Each ack passes the fault filter on its own.
func (in *inboundConn) flushAcks() {
	if !in.owed {
		return
	}
	t := in.t
	b := wire.GetBuf()
	data := *b
	ack := func(seq uint64) {
		if drop, _, _ := t.judge(in.from); drop {
			return
		}
		t.met.acksSent.Inc()
		data = wire.AppendFrameMsg(data, t.self, t.epoch, 0, &wire.Ack{Seq: seq, Cum: in.cum})
	}
	selective := false
	for _, seq := range in.sel {
		if seq > in.cum { // the gap below it may have filled since
			ack(seq)
			selective = true
		}
	}
	if !selective {
		ack(0)
	}
	if len(data) > 0 {
		_ = in.c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
		_, _ = in.c.Write(data) // an error surfaces as a read failure shortly after
	}
	*b = data[:0]
	wire.PutBuf(b)
	in.owed, in.sel = false, in.sel[:0]
}

// readLoop consumes frames from one inbound connection: unreliable frames
// (seq 0) go straight to the handler, reliable frames are delivered through
// the dedup window so the handler sees each message exactly once, and
// acknowledged in one write when the buffered reader next goes back to the
// kernel. Corrupt frames poison the stream and drop the connection; the
// sender's retransmissions arrive on a fresh one. A reader that stops
// between reads still runs the Idle hook for what it delivered.
func (t *TCP) readLoop(c net.Conn) {
	defer func() {
		t.idle()
		_ = c.Close()
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	in := &inboundConn{t: t, c: c}
	br := bufio.NewReaderSize(in, readBufBytes)
	for {
		fr, buf, err := wire.ReadFrameBuf(br, maxFrame)
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
		reliable, fresh := fr.Seq != 0, false
		if reliable {
			var floor uint64
			fresh, floor = t.dedupAdmit(fr.From, fr.Epoch, fr.Seq)
			in.owe(fr.From, fr.Epoch, fr.Seq, floor)
		}
		switch _, isAck := m.(*wire.Ack); {
		case fresh:
			t.met.framesReceived.Inc()
			t.deliver(fr.From, m, buf)
		case reliable:
			t.met.framesDeduped.Inc()
			buf.Release()
		case isAck:
			// Acks travel on the reverse path; a stray one stops here.
			buf.Release()
		default:
			t.deliver(fr.From, m, buf)
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

// idle runs the Idle hook, if any.
func (t *TCP) idle() {
	if t.opts.Idle != nil {
		t.opts.Idle()
	}
}

// dedupAdmit records one reliable frame and reports whether it is new,
// together with the sender's floor afterwards: every sequence number at or
// below it has been admitted. A changed epoch means the sender restarted:
// its sequence space started over, so the window (and the floor) resets.
func (t *TCP) dedupAdmit(from object.SiteID, epoch, seq uint64) (fresh bool, floor uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.dedup[from]
	if w == nil || w.epoch != epoch {
		w = &dedupWindow{epoch: epoch, seen: make(map[uint64]struct{})}
		t.dedup[from] = w
	}
	if seq <= w.floor {
		return false, w.floor
	}
	if seq > w.floor+1 {
		// Above a gap: park it in the sparse set until the gap fills.
		if _, dup := w.seen[seq]; dup {
			return false, w.floor
		}
		w.seen[seq] = struct{}{}
		return true, w.floor
	}
	// In order — the common case never touches the set.
	w.floor++
	for len(w.seen) > 0 {
		if _, ok := w.seen[w.floor+1]; !ok {
			break
		}
		delete(w.seen, w.floor+1)
		w.floor++
	}
	return true, w.floor
}

// Close shuts the listener and all connections, stops retransmission, and
// waits for every goroutine to drain. Unacked frames are discarded; owed
// acknowledgements are still written, so a peer is not left retransmitting
// to an endpoint that received its message and then went away.
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
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, p := range t.peerSnapshot() {
		p.mu.Lock()
		if p.conn != nil {
			dropConnLocked(p, p.conn)
		}
		p.pending = sendWindow{}
		p.mu.Unlock()
	}
	for _, c := range conns {
		// Each read loop settles its acks and closes its own connection
		// (see inboundConn.Read).
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	t.wg.Wait()
	return err
}
