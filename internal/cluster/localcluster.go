package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
)

// ErrTimeout is returned when a query misses its deadline; the accompanying
// Result (if any) is partial.
var ErrTimeout = errors.New("cluster: query timed out")

// ErrClosed is returned when submitting to a closed cluster.
var ErrClosed = errors.New("cluster: closed")

// LocalCluster runs one goroutine per site with in-process message passing.
// It exercises the same site logic as SimCluster under real concurrency.
type LocalCluster struct {
	ids    []object.SiteID
	sites  map[object.SiteID]*localSite
	stores map[object.SiteID]*store.Store
	dirs   map[object.SiteID]*naming.Directory
	regs   map[object.SiteID]*metrics.Registry

	// net carries inter-site traffic when chaos or the failure detector is
	// enabled (nil otherwise: envelopes are posted directly).
	net          *chaos.Network
	hbEvery      time.Duration
	suspectAfter time.Duration

	mu         sync.Mutex
	nextQID    uint64
	waiters    map[wire.QueryID]chan queryReply
	migWaiters map[uint64]chan *wire.Migrated
	closed     bool
	firstErr   error

	wg sync.WaitGroup
}

// queryReply is what resolves a waiting Exec: a completion, or an admission
// rejection.
type queryReply struct {
	complete *wire.Complete
	reject   *wire.Reject
}

// localSite owns one Site driven by a pool of worker goroutines
// (Options.Workers; one by default). Work arrives through an unbounded
// mailbox of thunks so deliveries never deadlock; workers drain the mailbox
// and step engine work interchangeably — the Site's own locking and
// per-context pinning make both safe from any worker.
type localSite struct {
	c  *LocalCluster
	id object.SiteID
	s  *site.Site

	mu      sync.Mutex
	mailbox []func(*site.Site) []wire.Envelope
	// wakes holds one capacity-1 wake channel per worker: a single shared
	// channel would wake only one worker per post, leaving the rest asleep
	// while several contexts have runnable work.
	wakes []chan struct{}
	quit  chan struct{}
	down  bool

	// Failure-detector state (nil maps unless the detector is enabled).
	heard     map[object.SiteID]time.Time
	suspected map[object.SiteID]bool
}

// NewLocal builds and starts a cluster of n sites.
func NewLocal(n int, opts Options) *LocalCluster {
	c := &LocalCluster{
		ids:        siteIDs(n),
		sites:      make(map[object.SiteID]*localSite, n),
		stores:     make(map[object.SiteID]*store.Store, n),
		dirs:       make(map[object.SiteID]*naming.Directory, n),
		regs:       make(map[object.SiteID]*metrics.Registry, n),
		waiters:    make(map[wire.QueryID]chan queryReply),
		migWaiters: make(map[uint64]chan *wire.Migrated),
	}
	var marks *site.GlobalMarks
	if opts.OracleMarkTable {
		marks = site.NewGlobalMarks()
	}
	if opts.Chaos != nil || opts.HeartbeatInterval > 0 {
		var inj *chaos.Injector
		if opts.Chaos != nil {
			inj = chaos.NewInjector(*opts.Chaos)
		}
		c.net = chaos.NewNetwork(inj)
		c.hbEvery = opts.HeartbeatInterval
		c.suspectAfter = opts.SuspectAfter
		if c.hbEvery > 0 && c.suspectAfter <= 0 {
			c.suspectAfter = 4 * c.hbEvery
		}
	}
	for _, id := range c.ids {
		s, st, dir, reg := buildSite(id, c.ids, opts, marks)
		c.stores[id] = st
		if dir != nil {
			c.dirs[id] = dir
		}
		if reg != nil {
			c.regs[id] = reg
		}
		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		ls := &localSite{
			c:     c,
			id:    id,
			s:     s,
			wakes: make([]chan struct{}, workers),
			quit:  make(chan struct{}),
		}
		for i := range ls.wakes {
			ls.wakes[i] = make(chan struct{}, 1)
		}
		c.sites[id] = ls
		if opts.QueryDeadline > 0 || opts.MaxInflight > 0 {
			c.wg.Add(1)
			go ls.sweeperLoop(sweepInterval(opts.QueryDeadline))
		}
		if c.net != nil {
			if c.hbEvery > 0 {
				// Initialise detector state before Register: a peer's
				// heartbeat may arrive as soon as the handler is installed.
				ls.heard = make(map[object.SiteID]time.Time, n-1)
				ls.suspected = make(map[object.SiteID]bool)
				now := time.Now()
				for _, peer := range c.ids {
					if peer != id {
						ls.heard[peer] = now
					}
				}
			}
			c.net.Register(id, ls.receive)
			if c.hbEvery > 0 {
				c.wg.Add(1)
				go ls.heartbeatLoop(c.hbEvery, c.suspectAfter)
			}
		}
		for _, wake := range ls.wakes {
			c.wg.Add(1)
			go ls.loop(wake)
		}
	}
	return c
}

// Injector exposes the chaos fault injector so tests can partition and heal
// links at runtime (nil unless Options.Chaos was set).
func (c *LocalCluster) Injector() *chaos.Injector {
	if c.net == nil {
		return nil
	}
	return c.net.Injector()
}

// Sites returns the site ids.
func (c *LocalCluster) Sites() []object.SiteID { return c.ids }

// Store returns a site's store for loading and inspection.
func (c *LocalCluster) Store(id object.SiteID) *store.Store { return c.stores[id] }

// Directory returns a site's naming directory (nil unless UseNaming).
func (c *LocalCluster) Directory(id object.SiteID) *naming.Directory { return c.dirs[id] }

// Metrics returns a site's metrics registry (nil unless Options.Metrics).
// Snapshot it rather than reading instruments while queries run.
func (c *LocalCluster) Metrics(id object.SiteID) *metrics.Registry { return c.regs[id] }

// PeerIsDown reports whether site at currently suspects peer dead (always
// false without the failure detector). Tests poll this instead of sleeping
// for a detector interval.
func (c *LocalCluster) PeerIsDown(at, peer object.SiteID) bool {
	ls, ok := c.sites[at]
	if !ok {
		return false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.suspected[peer]
}

// Put stores an object at a site (setup time), registering it with naming.
func (c *LocalCluster) Put(at object.SiteID, o *object.Object) error {
	return putObject(c.stores, c.dirs, at, o)
}

// Move migrates an object to another site. It must only be called while no
// queries are running (requires UseNaming).
func (c *LocalCluster) Move(id object.ID, to object.SiteID) error {
	return moveObject(c.stores, c.dirs, id, to)
}

// SiteStats snapshots a site's statistics. The site goroutine may be
// mutating them concurrently, so call this only when the cluster is idle
// (between queries) for exact values.
func (c *LocalCluster) SiteStats(id object.SiteID) site.Stats {
	ls := c.sites[id]
	ch := make(chan site.Stats, 1)
	ls.post(func(s *site.Site) []wire.Envelope {
		ch <- s.Stats()
		return nil
	})
	return <-ch
}

// SiteContexts reports a site's live query-context count, read on the site
// goroutine so the value is consistent with message processing. Tests poll it
// to confirm cancelled or expired queries drained instead of lingering. Only
// call it on live sites: a SetDown site discards its mailbox, so the read
// would block until revival.
func (c *LocalCluster) SiteContexts(id object.SiteID) int {
	ls := c.sites[id]
	ch := make(chan int, 1)
	ls.post(func(s *site.Site) []wire.Envelope {
		ch <- s.Contexts()
		return nil
	})
	return <-ch
}

// SetDown simulates a crashed site: its mailbox drains into the void and
// deliveries to it are dropped.
func (c *LocalCluster) SetDown(id object.SiteID, down bool) {
	ls := c.sites[id]
	ls.mu.Lock()
	ls.down = down
	ls.mu.Unlock()
	ls.poke()
}

// Close stops all site goroutines.
func (c *LocalCluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, ls := range c.sites {
		close(ls.quit)
		ls.poke()
	}
	c.wg.Wait()
	if c.net != nil {
		c.net.Close()
	}
}

// receive is the chaos-network delivery handler: heartbeats feed the failure
// detector and stop there; everything else is posted to the site mailbox.
func (ls *localSite) receive(from object.SiteID, m wire.Msg) {
	ls.noteHeard(from)
	if _, ok := m.(*wire.Heartbeat); ok {
		return
	}
	ls.post(func(s *site.Site) []wire.Envelope {
		out, err := s.HandleMessage(from, m)
		if err != nil {
			ls.c.fail(err)
			return nil
		}
		return out
	})
}

// noteHeard refreshes a peer's liveness clock; any traffic counts, not just
// heartbeats. A formerly suspected peer that speaks again is reinstated.
func (ls *localSite) noteHeard(from object.SiteID) {
	ls.mu.Lock()
	if ls.heard == nil {
		ls.mu.Unlock()
		return
	}
	ls.heard[from] = time.Now()
	wasSuspect := ls.suspected[from]
	delete(ls.suspected, from)
	ls.mu.Unlock()
	if wasSuspect {
		ls.post(func(s *site.Site) []wire.Envelope {
			s.PeerUp(from)
			return nil
		})
	}
}

// heartbeatLoop probes peers every interval and declares any peer silent for
// longer than suspectAfter dead, feeding site.PeerDown on the site goroutine.
func (ls *localSite) heartbeatLoop(every, suspectAfter time.Duration) {
	defer ls.c.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-ls.quit:
			return
		case <-ticker.C:
		}
		if ls.isDown() {
			// A crashed site neither probes nor suspects; restart the
			// silence clocks so revival doesn't mass-declare peers dead.
			ls.resetHeard()
			continue
		}
		seq++
		for _, peer := range ls.c.ids {
			if peer != ls.id {
				ls.c.net.SendUnreliable(ls.id, peer, &wire.Heartbeat{Seq: seq})
			}
		}
		ls.checkSuspects(suspectAfter)
	}
}

// sweepInterval picks the deadline sweeper's tick: a quarter of the default
// query deadline, clamped so very short deadlines don't spin and very long
// ones still shed promptly.
func sweepInterval(deadline time.Duration) time.Duration {
	every := deadline / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	if every > 100*time.Millisecond {
		every = 100 * time.Millisecond
	}
	return every
}

// sweeperLoop periodically expires deadlines and drains the admission queue
// on the site goroutine. Without it, a site with no traffic would never
// notice an expired context or a shed-worthy queued Submit.
func (ls *localSite) sweeperLoop(every time.Duration) {
	defer ls.c.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ls.quit:
			return
		case <-ticker.C:
		}
		if ls.isDown() {
			continue
		}
		ls.post(func(s *site.Site) []wire.Envelope {
			out, err := s.ExpireDeadlines()
			if err != nil {
				ls.c.fail(err)
				return nil
			}
			return out
		})
	}
}

func (ls *localSite) resetHeard() {
	now := time.Now()
	ls.mu.Lock()
	for peer := range ls.heard {
		ls.heard[peer] = now
	}
	ls.mu.Unlock()
}

func (ls *localSite) checkSuspects(suspectAfter time.Duration) {
	now := time.Now()
	var newly []object.SiteID
	ls.mu.Lock()
	for peer, last := range ls.heard {
		if !ls.suspected[peer] && now.Sub(last) > suspectAfter {
			ls.suspected[peer] = true
			newly = append(newly, peer)
		}
	}
	ls.mu.Unlock()
	for _, peer := range newly {
		peer := peer
		ls.post(func(s *site.Site) []wire.Envelope {
			return s.PeerDown(peer)
		})
	}
}

// post enqueues a thunk on the site's mailbox.
func (ls *localSite) post(f func(*site.Site) []wire.Envelope) {
	ls.mu.Lock()
	ls.mailbox = append(ls.mailbox, f)
	ls.mu.Unlock()
	ls.poke()
}

func (ls *localSite) poke() {
	for _, wake := range ls.wakes {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

func (ls *localSite) take() (func(*site.Site) []wire.Envelope, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.down {
		ls.mailbox = nil
		return nil, false
	}
	if len(ls.mailbox) == 0 {
		return nil, false
	}
	f := ls.mailbox[0]
	// Zero the vacated slot: the backing array outlives the entry, and a
	// stale closure would pin the message (and the frame it borrows from).
	ls.mailbox[0] = nil
	ls.mailbox = ls.mailbox[1:]
	return f, true
}

func (ls *localSite) isDown() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.down
}

// loop is one site worker: drain the mailbox, then step engine work,
// blocking on its own wake channel when fully idle. With Options.Workers > 1
// several of these run against the same Site; the Site serializes its
// bookkeeping internally and pins each query context to the worker stepping
// it, so concurrent loops advance different contexts in parallel. A Step
// that loses the race for the last runnable context simply reports no work
// and the worker goes back to sleep.
func (ls *localSite) loop(wake chan struct{}) {
	defer ls.c.wg.Done()
	for {
		select {
		case <-ls.quit:
			return
		default:
		}
		if f, ok := ls.take(); ok {
			ls.dispatch(f(ls.s))
			continue
		}
		if !ls.isDown() && ls.s.HasWork() {
			_, envs, did, err := ls.s.Step()
			if err != nil {
				ls.c.fail(err)
				return
			}
			ls.dispatch(envs)
			if did {
				continue
			}
		}
		select {
		case <-ls.quit:
			return
		case <-wake:
		}
	}
}

// dispatch delivers envelopes to their destinations.
func (ls *localSite) dispatch(envs []wire.Envelope) {
	for _, env := range envs {
		env := env
		if env.To == clientID {
			switch cm := env.Msg.(type) {
			case *wire.Complete:
				ls.c.complete(cm)
			case *wire.Reject:
				ls.c.rejected(cm)
			case *wire.Migrated:
				ls.c.migrated(cm)
			default:
				// Sites address only completions and migration acks to the
				// client; anything else here is a protocol bug. Count it so
				// hfstat and the debug endpoint surface it instead of the
				// message vanishing.
				ls.c.regs[ls.id].Counter("hf_wire_unknown_msgs").Inc()
			}
			continue
		}
		if ls.c.net != nil {
			// Reliable chaos-network path: faults, retransmission and dedup
			// happen inside the network; errors (unknown site, closed) are
			// indistinguishable from loss and handled by the detector.
			_ = ls.c.net.Send(ls.id, env.To, env.Msg)
			continue
		}
		dst, ok := ls.c.sites[env.To]
		if !ok {
			continue
		}
		from := ls.id
		dst.post(func(s *site.Site) []wire.Envelope {
			out, err := s.HandleMessage(from, env.Msg)
			if err != nil {
				ls.c.fail(err)
				return nil
			}
			return out
		})
	}
}

func (c *LocalCluster) fail(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

func (c *LocalCluster) complete(cm *wire.Complete) {
	c.mu.Lock()
	ch := c.waiters[cm.QID]
	delete(c.waiters, cm.QID)
	c.mu.Unlock()
	if ch != nil {
		ch <- queryReply{complete: cm}
	}
}

func (c *LocalCluster) rejected(rm *wire.Reject) {
	c.mu.Lock()
	ch := c.waiters[rm.QID]
	delete(c.waiters, rm.QID)
	c.mu.Unlock()
	if ch != nil {
		ch <- queryReply{reject: rm}
	}
}

func (c *LocalCluster) migrated(m *wire.Migrated) {
	c.mu.Lock()
	ch := c.migWaiters[m.Seq]
	delete(c.migWaiters, m.Seq)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
	}
}

// MigrateLive moves an object between sites through the live migration
// protocol (unlike Move, which bypasses the sites at setup time). Requires
// UseNaming.
func (c *LocalCluster) MigrateLive(id object.ID, to object.SiteID, timeout time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextQID++
	seq := c.nextQID
	ch := make(chan *wire.Migrated, 1)
	c.migWaiters[seq] = ch
	c.mu.Unlock()

	owner, ok := c.sites[id.Birth]
	if !ok {
		return fmt.Errorf("cluster: unknown birth site %v", id.Birth)
	}
	req := &wire.Migrate{Seq: seq, ID: id, To: to, Client: clientID}
	owner.post(func(s *site.Site) []wire.Envelope {
		out, err := s.HandleMessage(clientID, req)
		if err != nil {
			c.fail(err)
		}
		return out
	})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-ch:
		if !m.OK {
			return fmt.Errorf("cluster: migration failed: %s", m.Err)
		}
		return nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.migWaiters, seq)
		c.mu.Unlock()
		return ErrTimeout
	}
}

// Exec runs a query to completion at the given originator, with a deadline.
// On timeout the query is aborted and the partial answer returned together
// with ErrTimeout.
func (c *LocalCluster) Exec(origin object.SiteID, body string, initial []object.ID, timeout time.Duration) (*Result, error) {
	res, _, err := c.ExecQID(origin, body, initial, timeout)
	return res, err
}

// ExecQID is Exec returning the query id for distributed-set follow-ups.
func (c *LocalCluster) ExecQID(origin object.SiteID, body string, initial []object.ID, timeout time.Duration) (*Result, wire.QueryID, error) {
	return c.exec(execSpec{origin: origin, body: body, initial: initial, timeout: timeout})
}

// ExecBudget is Exec with a server-side time budget: the budget rides the
// Submit, shrinks on every cross-site hop, and an expired query comes back
// as a partial answer with Result.Reason set — no client-side abort needed.
// An admission-control refusal returns ErrRejected.
func (c *LocalCluster) ExecBudget(origin object.SiteID, body string, initial []object.ID, budget, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(execSpec{origin: origin, body: body, initial: initial, budget: budget, timeout: timeout})
	return res, err
}

// ExecSeeded runs a query seeded from a previous query's distributed result
// set.
func (c *LocalCluster) ExecSeeded(origin object.SiteID, body string, from wire.QueryID, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(execSpec{origin: origin, body: body, from: from, timeout: timeout})
	return res, err
}

// ExecAs is Exec under a fairness identity: clientID rides the Submit
// (wire.Submit.ClientID) and, with Options.FairQuantum set, sites schedule
// this query's admission and engine steps by deficit round robin against
// other clients' work. With fairness off the id is carried but inert.
func (c *LocalCluster) ExecAs(clientID uint64, origin object.SiteID, body string, initial []object.ID, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(execSpec{origin: origin, body: body, initial: initial, clientID: clientID, timeout: timeout})
	return res, err
}

// ExecAsBudget is ExecAs with a server-side time budget (see ExecBudget).
func (c *LocalCluster) ExecAsBudget(clientID uint64, origin object.SiteID, body string, initial []object.ID, budget, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(execSpec{origin: origin, body: body, initial: initial, clientID: clientID, budget: budget, timeout: timeout})
	return res, err
}

// execSpec carries one query submission's parameters.
type execSpec struct {
	origin   object.SiteID
	body     string
	initial  []object.ID
	from     wire.QueryID
	clientID uint64
	budget   time.Duration
	timeout  time.Duration
}

func (c *LocalCluster) exec(spec execSpec) (*Result, wire.QueryID, error) {
	origin, body, initial, from := spec.origin, spec.body, spec.initial, spec.from
	budget, timeout := spec.budget, spec.timeout
	ls, ok := c.sites[origin]
	if !ok {
		return nil, wire.QueryID{}, fmt.Errorf("cluster: no site %v", origin)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, wire.QueryID{}, ErrClosed
	}
	c.nextQID++
	qid := wire.QueryID{Origin: origin, Seq: c.nextQID}
	ch := make(chan queryReply, 1)
	c.waiters[qid] = ch
	c.mu.Unlock()

	sub := &wire.Submit{QID: qid, Client: clientID, Body: body, Initial: initial,
		InitialFromResultOf: from, ClientID: spec.clientID}
	if budget > 0 {
		sub.BudgetUS = uint64(budget.Microseconds())
		if sub.BudgetUS == 0 {
			sub.BudgetUS = 1 // sub-microsecond budgets round up, not off
		}
	}
	ls.post(func(s *site.Site) []wire.Envelope {
		out, err := s.HandleMessage(clientID, sub)
		if err != nil {
			c.fail(err)
		}
		return out
	})

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return c.resolve(r, qid)
	case <-timer.C:
		// Abort on the site goroutine; it will deliver a partial Complete
		// (or a Reject, if the query was still waiting for admission).
		ls.post(func(s *site.Site) []wire.Envelope {
			out, err := s.HandleMessage(clientID, &wire.Cancel{QID: qid, Reason: "cancelled by client"})
			if err != nil {
				c.fail(err)
				return nil
			}
			return out
		})
		select {
		case r := <-ch:
			res, _, err := c.resolve(r, qid)
			if err != nil {
				return nil, qid, err
			}
			return res, qid, ErrTimeout
		case <-time.After(5 * time.Second):
			c.mu.Lock()
			err := c.firstErr
			c.mu.Unlock()
			if err != nil {
				return nil, qid, err
			}
			return nil, qid, ErrTimeout
		}
	}
}

// resolve turns a queryReply into the client-facing result or error.
func (c *LocalCluster) resolve(r queryReply, qid wire.QueryID) (*Result, wire.QueryID, error) {
	if r.reject != nil {
		return nil, qid, fmt.Errorf("%w: %s", ErrRejected, r.reject.Reason)
	}
	res, err := fromComplete(r.complete)
	return res, qid, err
}

// Cancel cooperatively cancels a running query: the originator immediately
// answers with the partial results collected so far (Reason "cancelled by
// client") and fans wire.Cancel out to the peers, whose contexts return
// their termination credit and tear down. Unknown or already-finished
// queries are no-ops.
func (c *LocalCluster) Cancel(qid wire.QueryID) {
	ls, ok := c.sites[qid.Origin]
	if !ok {
		return
	}
	ls.post(func(s *site.Site) []wire.Envelope {
		out, err := s.HandleMessage(clientID, &wire.Cancel{QID: qid, Reason: "cancelled by client"})
		if err != nil {
			c.fail(err)
			return nil
		}
		return out
	})
}

// Err returns the first internal error any site hit (nil normally).
func (c *LocalCluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}
