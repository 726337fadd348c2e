package chaos

import (
	"fmt"
	"sync"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// Handler receives a delivered message on the receiving site's behalf.
type Handler func(from object.SiteID, m wire.Msg)

// Network is an in-memory message fabric that layers reliable, exactly-once
// delivery on top of an Injector's faulty links — the same
// sequence/ack/retransmit/dedup scheme transport.TCP uses, with the network
// itself simulated. Tests use it to drive cluster and termination logic
// through drop, duplication, delay, reorder, and partition faults while
// the logic above still sees each Send delivered exactly once (or never,
// when the link stays severed until the sender gives up).
//
// Messages are encoded and re-decoded per delivered copy, so receivers get
// independent values and the wire codec is exercised on every hop. The
// decode is the borrowed one (wire.DecodeBorrowed): string and []byte fields
// alias the sender's encoded frame. That needs no release protocol here —
// the fabric never mutates a frame, and the garbage collector keeps it alive
// as long as any borrowed field does.
type Network struct {
	inj *Injector

	mu       sync.Mutex
	handlers map[object.SiteID]Handler
	links    map[[2]object.SiteID]*chaosLink
	timers   map[*time.Timer]struct{}
	closed   bool
	wg       sync.WaitGroup

	// Retransmission policy; fixed, tuned for tests.
	retransmitBase time.Duration
	retransmitMax  time.Duration
	maxAttempts    int
}

// chaosLink tracks one directed sender->receiver link: the sender's next
// sequence number and unacked messages, and the receiver's dedup state.
type chaosLink struct {
	nextSeq uint64
	pending map[uint64]*pendingSend
	// Receiver-side dedup: all seqs <= floor delivered, plus sparse seen.
	floor uint64
	seen  map[uint64]struct{}
}

type pendingSend struct {
	from, to object.SiteID
	seq      uint64
	data     []byte
	attempts int
	acked    bool
	timer    *time.Timer
}

// NewNetwork builds a Network over inj. A nil inj means a fault-free fabric.
func NewNetwork(inj *Injector) *Network {
	if inj == nil {
		inj = NewInjector(Config{Seed: 1})
	}
	return &Network{
		inj:            inj,
		handlers:       make(map[object.SiteID]Handler),
		links:          make(map[[2]object.SiteID]*chaosLink),
		timers:         make(map[*time.Timer]struct{}),
		retransmitBase: 2 * time.Millisecond,
		retransmitMax:  50 * time.Millisecond,
		maxAttempts:    40,
	}
}

// Injector returns the fault injector the network consults, so tests can
// partition and heal links mid-run.
func (n *Network) Injector() *Injector { return n.inj }

// Register installs the handler for site id. Handlers run either inline in
// the sender's goroutine (zero-delay deliveries) or on timer goroutines, so
// they must be safe for concurrent invocation and must not block.
func (n *Network) Register(id object.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// Send delivers m from -> to exactly once despite link faults, retrying
// with exponential backoff until acknowledged or the attempt budget is
// exhausted (a persistently severed link). It returns an error only for an
// unknown receiver or a closed network — a faulty link is not a send error.
func (n *Network) Send(from, to object.SiteID, m wire.Msg) error {
	data := wire.Encode(m)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("chaos: network closed")
	}
	if _, ok := n.handlers[to]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("chaos: unknown site %d", to)
	}
	l := n.link(from, to)
	l.nextSeq++
	p := &pendingSend{from: from, to: to, seq: l.nextSeq, data: data}
	l.pending[p.seq] = p
	n.mu.Unlock()

	n.transmit(p)
	return nil
}

// SendUnreliable delivers m best-effort: subject to the injector's faults,
// never retransmitted, never deduplicated. Heartbeats use this — a lost
// heartbeat is itself the failure signal.
func (n *Network) SendUnreliable(from, to object.SiteID, m wire.Msg) {
	drop, copies, delay := n.inj.Judge(from, to)
	if drop {
		return
	}
	data := wire.Encode(m)
	for i := 0; i < copies; i++ {
		n.after(delay, func() { n.handoff(from, to, data) })
	}
}

// transmit pushes one attempt of p through the faulty link and schedules
// the retransmission that fires unless an ack lands first.
func (n *Network) transmit(p *pendingSend) {
	n.mu.Lock()
	if n.closed || p.acked {
		n.mu.Unlock()
		return
	}
	p.attempts++
	attempts := p.attempts
	if attempts > n.maxAttempts {
		// Give up: the link is dead. The failure detector above is
		// responsible for noticing; dropping here keeps timers from
		// spinning forever against a permanent partition.
		delete(n.link(p.from, p.to).pending, p.seq)
		n.mu.Unlock()
		return
	}
	backoff := n.retransmitBase << (attempts - 1)
	if backoff > n.retransmitMax {
		backoff = n.retransmitMax
	}
	p.timer = n.afterLocked(backoff, func() { n.transmit(p) })
	n.mu.Unlock()

	drop, copies, delay := n.inj.Judge(p.from, p.to)
	if drop {
		return
	}
	for i := 0; i < copies; i++ {
		n.after(delay, func() { n.arrive(p) })
	}
}

// arrive is one copy of a reliable frame reaching the receiver: ack it
// (acks are instantaneous and lossless — the real transport acks on the
// reverse TCP path), dedup, and deliver if new.
func (n *Network) arrive(p *pendingSend) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	// Ack: cancel the retransmission and retire the pending entry.
	if !p.acked {
		p.acked = true
		if p.timer != nil {
			if p.timer.Stop() {
				n.wg.Done()
			}
			delete(n.timers, p.timer)
		}
		delete(n.link(p.from, p.to).pending, p.seq)
	}
	// Dedup on the receiving side.
	l := n.link(p.from, p.to)
	if p.seq <= l.floor {
		n.mu.Unlock()
		return
	}
	if _, dup := l.seen[p.seq]; dup {
		n.mu.Unlock()
		return
	}
	l.seen[p.seq] = struct{}{}
	for {
		if _, ok := l.seen[l.floor+1]; !ok {
			break
		}
		delete(l.seen, l.floor+1)
		l.floor++
	}
	data := p.data
	from, to := p.from, p.to
	n.mu.Unlock()

	n.handoff(from, to, data)
}

// handoff decodes one delivered copy and invokes the receiver's handler.
func (n *Network) handoff(from, to object.SiteID, data []byte) {
	n.mu.Lock()
	h := n.handlers[to]
	closed := n.closed
	n.mu.Unlock()
	if h == nil || closed {
		return
	}
	m, err := wire.DecodeBorrowed(data)
	if err != nil {
		panic(fmt.Sprintf("chaos: undecodable frame on %d->%d: %v", from, to, err))
	}
	h(from, m)
}

// link returns the directed link record, creating it on first use; callers
// hold n.mu.
func (n *Network) link(from, to object.SiteID) *chaosLink {
	key := [2]object.SiteID{from, to}
	l := n.links[key]
	if l == nil {
		l = &chaosLink{pending: make(map[uint64]*pendingSend), seen: make(map[uint64]struct{})}
		n.links[key] = l
	}
	return l
}

// after runs fn after d (inline when d == 0 and the network is open),
// tracking the timer so Close can cancel it.
func (n *Network) after(d time.Duration, fn func()) {
	if d <= 0 {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if !closed {
			fn()
		}
		return
	}
	n.mu.Lock()
	if !n.closed {
		n.afterLocked(d, fn)
	}
	n.mu.Unlock()
}

// afterLocked schedules fn after d; callers hold n.mu.
func (n *Network) afterLocked(d time.Duration, fn func()) *time.Timer {
	var t *time.Timer
	n.wg.Add(1)
	t = time.AfterFunc(d, func() {
		defer n.wg.Done()
		n.mu.Lock()
		delete(n.timers, t)
		closed := n.closed
		n.mu.Unlock()
		if !closed {
			fn()
		}
	})
	n.timers[t] = struct{}{}
	return t
}

// Quiesce reports whether every reliable send has been delivered or given
// up — no pending frames, no live timers. Tests poll it before asserting.
func (n *Network) Quiesce() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if len(l.pending) > 0 {
			return false
		}
	}
	return len(n.timers) == 0
}

// Close stops all retransmission and delivery. Pending timers are cancelled;
// in-flight handler invocations are waited out.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for t := range n.timers {
		if t.Stop() {
			n.wg.Done()
		}
		delete(n.timers, t)
	}
	n.mu.Unlock()
	n.wg.Wait()
}
