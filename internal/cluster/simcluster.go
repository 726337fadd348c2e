package cluster

import (
	"errors"
	"fmt"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
)

// clientID is the pseudo-site representing the experimental client, which
// per the paper "ran at a separate machine from any of the servers".
const clientID object.SiteID = 0xFFFF

// SimCluster runs N sites on a shared discrete-event loop. Each site is a
// serial CPU: it handles one message or processes one object at a time,
// charging the cost model. Messages travel with sender CPU cost, wire
// latency, and receiver CPU cost.
type SimCluster struct {
	loop  sim.Loop
	cost  sim.CostModel
	ids   []object.SiteID
	sites map[object.SiteID]*simSite
	dirs  map[object.SiteID]*naming.Directory

	nextQID     uint64
	completes   map[wire.QueryID]*wire.Complete
	rejects     map[wire.QueryID]*wire.Reject
	completedAt map[wire.QueryID]time.Duration
	err         error

	// latency, when non-nil, is the per-link one-way wire time matrix
	// (1-based site indices) a scenario topology compiled; nil means the
	// uniform cost-model Latency, the paper's single shared Ethernet.
	latency [][]time.Duration
	// blocked marks partitioned directed links. Messages sent across a cut
	// queue in pending — the reliable transport keeps retransmitting — and
	// flush when the partition heals. Crashed sites, by contrast, lose
	// traffic for good (SetDown).
	blocked map[[2]object.SiteID]bool
	pending []heldMsg
	// msgObserver, when set, sees every inter-site delivery as it is
	// scheduled (scenario message-level tracing).
	msgObserver func(at time.Duration, from, to object.SiteID, m wire.Msg)
}

// heldMsg is a message caught by a partition, waiting for heal.
type heldMsg struct {
	from, to object.SiteID
	msg      wire.Msg
	at       time.Duration // original arrival time, had the link been up
}

type simSite struct {
	c         *SimCluster
	s         *site.Site
	store     *store.Store
	id        object.SiteID
	inbox     []inMsg
	scheduled bool
	down      bool
	// freeAt is when the site's CPU next falls idle: the paper's serial
	// CPU, charged each unit of work in turn.
	freeAt time.Duration
	// Counters for experiment reporting.
	msgsIn, msgsOut int
	// compiles and cacheHits are the site's plan counters, which price
	// each message's query setup.
	compiles, cacheHits *metrics.Counter
}

type inMsg struct {
	from object.SiteID
	msg  wire.Msg
}

// NewSim builds a simulated cluster of n sites.
func NewSim(n int, opts Options) *SimCluster {
	c := &SimCluster{
		cost:        opts.Cost,
		ids:         siteIDs(n),
		sites:       make(map[object.SiteID]*simSite, n),
		dirs:        make(map[object.SiteID]*naming.Directory, n),
		completes:   make(map[wire.QueryID]*wire.Complete),
		rejects:     make(map[wire.QueryID]*wire.Reject),
		completedAt: make(map[wire.QueryID]time.Duration),
	}
	for _, cfg := range siteConfigs(c.ids, opts) {
		id := cfg.ID
		s := site.New(cfg)
		reg := s.Config().Metrics
		c.sites[id] = &simSite{
			c: c, s: s, id: id, store: cfg.Store,
			compiles: reg.Counter("hf_plan_compiles"), cacheHits: reg.Counter("hf_plan_cache_hits"),
		}
		if cfg.Directory != nil {
			c.dirs[id] = cfg.Directory
		}
	}
	return c
}

// Sites returns the site ids (1..n).
func (c *SimCluster) Sites() []object.SiteID { return c.ids }

// Store returns the object store of a site, for loading data. It must only
// be used for setup and inspection, not while the simulation is running.
func (c *SimCluster) Store(id object.SiteID) *store.Store {
	ss, ok := c.sites[id]
	if !ok {
		panic(fmt.Sprintf("cluster: no site %v", id))
	}
	return ss.store
}

// Directory returns a site's naming directory (nil unless UseNaming).
func (c *SimCluster) Directory(id object.SiteID) *naming.Directory { return c.dirs[id] }

// Put stores an object at a site (setup time), registering it with naming.
func (c *SimCluster) Put(at object.SiteID, o *object.Object) error {
	stores := make(map[object.SiteID]*store.Store, len(c.sites))
	for id, ss := range c.sites {
		stores[id] = ss.store
	}
	return putObject(stores, c.dirs, at, o)
}

// Move migrates an object to another site (setup time, requires UseNaming).
func (c *SimCluster) Move(id object.ID, to object.SiteID) error {
	stores := make(map[object.SiteID]*store.Store, len(c.sites))
	for sid, ss := range c.sites {
		stores[sid] = ss.store
	}
	return moveObject(stores, c.dirs, id, to)
}

// SetDown marks a site as crashed: it silently drops everything sent to it
// (including messages already in flight) and stops processing. Pending inbox
// work is discarded, as a machine crash would lose it.
func (c *SimCluster) SetDown(id object.SiteID, down bool) {
	ss := c.sites[id]
	ss.down = down
	if down {
		ss.inbox = nil
	}
}

// lat returns the one-way wire time from -> to: the scenario link matrix
// when one was compiled, else the uniform cost-model latency. The pseudo
// client site always uses the uniform latency.
func (c *SimCluster) lat(from, to object.SiteID) time.Duration {
	if c.latency == nil || from == clientID || to == clientID {
		return c.cost.Latency
	}
	return c.latency[from][to]
}

// setLinkLatency installs a compiled per-link latency matrix (1-based).
func (c *SimCluster) setLinkLatency(m [][]time.Duration) { c.latency = m }

// partition cuts every link between groups a and b (both directions).
// Messages sent across the cut queue until heal.
func (c *SimCluster) partition(a, b []object.SiteID) {
	if c.blocked == nil {
		c.blocked = make(map[[2]object.SiteID]bool)
	}
	for _, u := range a {
		for _, v := range b {
			c.blocked[[2]object.SiteID{u, v}] = true
			c.blocked[[2]object.SiteID{v, u}] = true
		}
	}
}

// healAll lifts every partition and flushes queued messages: each arrives no
// earlier than its original schedule and no earlier than one post-heal link
// latency, the way the reliable transport's retransmission would deliver it.
func (c *SimCluster) healAll() {
	c.blocked = nil
	held := c.pending
	c.pending = nil
	now := c.loop.Now()
	for _, h := range held {
		c.deliver(h.from, h.to, h.msg, maxDur(h.at, now+c.lat(h.from, h.to)))
	}
}

// Now returns the current virtual time.
func (c *SimCluster) Now() time.Duration { return c.loop.Now() }

// SiteStats returns a site's protocol statistics.
func (c *SimCluster) SiteStats(id object.SiteID) site.Stats { return c.sites[id].s.Stats() }

// TotalStats sums protocol statistics over all sites.
func (c *SimCluster) TotalStats() site.Stats {
	return totalStats(c.ids, func(id object.SiteID) *metrics.Registry { return c.sites[id].s.Config().Metrics })
}

// deliver schedules a message arrival.
func (c *SimCluster) deliver(from, to object.SiteID, m wire.Msg, at time.Duration) {
	if to == clientID {
		switch cm := m.(type) {
		case *wire.Complete:
			c.loop.At(at, func() {
				c.completes[cm.QID] = cm
				c.completedAt[cm.QID] = c.loop.Now()
			})
		case *wire.Reject:
			c.loop.At(at, func() {
				c.rejects[cm.QID] = cm
				c.completedAt[cm.QID] = c.loop.Now()
			})
		default:
			// Sites address only completions and rejections to the sim
			// client; anything else is a protocol bug, and it stops the run.
			c.err = fmt.Errorf("cluster: site %v sent the client an unexpected %v", from, m.Kind())
		}
		return
	}
	if c.blocked != nil && from != clientID && c.blocked[[2]object.SiteID{from, to}] {
		// Cut by a partition: the reliable transport keeps the message and
		// retransmits until the link heals.
		c.pending = append(c.pending, heldMsg{from: from, to: to, msg: m, at: at})
		return
	}
	dst, ok := c.sites[to]
	if !ok || dst.down {
		return // dropped on the floor, like a message to a crashed machine
	}
	if c.msgObserver != nil && from != clientID {
		c.msgObserver(at, from, to, m)
	}
	c.loop.At(at, func() {
		if dst.down {
			return // crashed while the message was in flight
		}
		dst.inbox = append(dst.inbox, inMsg{from: from, msg: m})
		dst.msgsIn++
		dst.kick()
	})
}

// kick schedules the site's next CPU slot if it has pending activity.
func (ss *simSite) kick() {
	if ss.scheduled || ss.down {
		return
	}
	if len(ss.inbox) == 0 && !ss.s.HasWork() {
		return
	}
	ss.scheduled = true
	ss.c.loop.At(maxDur(ss.c.loop.Now(), ss.freeAt), ss.run)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// run gives the site one CPU slot: handle one message, or process one
// object. Receiving is prioritized so dereference requests keep flowing.
func (ss *simSite) run() {
	ss.scheduled = false
	if ss.c.err != nil || ss.down {
		return
	}
	now := ss.c.loop.Now()
	cost := time.Duration(0)
	var out []wire.Envelope

	switch {
	case len(ss.inbox) > 0:
		in := ss.inbox[0]
		ss.inbox = ss.inbox[1:]
		cost = ss.recvCost(in.msg)
		compiles, hits := ss.compiles.Load(), ss.cacheHits.Load()
		envs, err := ss.s.HandleMessage(in.from, in.msg)
		if err != nil {
			ss.c.err = err
			return
		}
		// Charge query setup where it happened: a full compile when the
		// message introduced a new body, a cache probe when the plan cache
		// recognized one compiled earlier.
		cost += time.Duration(ss.compiles.Load()-compiles) * ss.c.cost.Compile
		cost += time.Duration(ss.cacheHits.Load()-hits) * ss.c.cost.PlanCacheHit
		out = envs
	case ss.s.HasWork():
		outcome, envs, _, err := ss.s.Step()
		if err != nil {
			ss.c.err = err
			return
		}
		if outcome.Processed {
			cost += ss.c.cost.ProcessObject
		}
		if outcome.ResultAdded {
			cost += ss.c.cost.AddResult
		}
		out = envs
	default:
		return
	}

	// Charge the work to the CPU. run fires no earlier than the CPU frees,
	// so the work begins now.
	ss.freeAt = now + cost
	for _, env := range out {
		ss.freeAt += ss.sendCost(env.Msg)
		ss.msgsOut++
		ss.c.deliver(ss.id, env.To, env.Msg, ss.freeAt+ss.c.lat(ss.id, env.To))
	}
	ss.kick()
}

// recvCost is the receiver-CPU charge for a message.
func (ss *simSite) recvCost(m wire.Msg) time.Duration {
	switch m := m.(type) {
	case *wire.Result:
		// Installing returned ids into the originator's result set.
		return ss.c.cost.RecvMsg + time.Duration(len(m.IDs))*ss.c.cost.ResultItem
	case *wire.Deref:
		// A single-id Deref costs exactly RecvMsg (the unbatched protocol);
		// each extra batched id adds only the per-entry charge.
		extra := len(m.ObjIDs) - 1
		if extra < 0 {
			extra = 0
		}
		return ss.c.cost.RecvMsg + time.Duration(extra)*ss.c.cost.DerefItem
	case *wire.Control, *wire.Finish:
		return ss.c.cost.CtlRecv
	default:
		return ss.c.cost.RecvMsg
	}
}

// sendCost is the sender-CPU charge for a message.
func (ss *simSite) sendCost(m wire.Msg) time.Duration {
	switch m.(type) {
	case *wire.Control, *wire.Finish:
		return ss.c.cost.CtlSend
	default:
		return ss.c.cost.SendMsg
	}
}

// ScheduleQuery schedules a query submission at virtual time at, without
// running the loop: the Submit arrives at the origin one client latency
// later. Callers drive the loop themselves (scenario runs, staggered arrival
// schedules) and read the answer from the completion tables afterwards.
func (c *SimCluster) ScheduleQuery(at time.Duration, origin object.SiteID, body string, initial []object.ID) wire.QueryID {
	c.nextQID++
	qid := wire.QueryID{Origin: origin, Seq: c.nextQID}
	sub := &wire.Submit{QID: qid, Client: clientID, Body: body, Initial: initial}
	c.deliver(clientID, origin, sub, at+c.cost.Latency)
	return qid
}

// Messages returns the total inter-site messages sent so far.
func (c *SimCluster) Messages() int {
	total := 0
	for _, id := range c.ids {
		total += c.sites[id].msgsOut
	}
	return total
}

// ErrWedged is returned when the simulation runs out of events before the
// query completes (e.g. a site is down and credits never return).
var ErrWedged = errors.New("cluster: query did not complete (site down or protocol wedge)")

// Exec submits a query at the given originator site and runs the simulation
// until the client receives the answer, returning it together with the
// client-observed response time.
func (c *SimCluster) Exec(origin object.SiteID, body string, initial []object.ID) (*Result, time.Duration, error) {
	return c.exec(origin, body, initial, wire.QueryID{})
}

// BatchQuery is one entry of an ExecBatch submission.
type BatchQuery struct {
	Origin  object.SiteID
	Body    string
	Initial []object.ID
}

// ExecBatch submits several queries at the same instant and runs the
// simulation until all complete, returning per-query results and response
// times. Sites interleave the queries' working sets round-robin, so the
// batch measures multi-query contention.
func (c *SimCluster) ExecBatch(queries []BatchQuery) ([]*Result, []time.Duration, error) {
	start := c.loop.Now()
	qids := make([]wire.QueryID, len(queries))
	for i, q := range queries {
		c.nextQID++
		qids[i] = wire.QueryID{Origin: q.Origin, Seq: c.nextQID}
		sub := &wire.Submit{QID: qids[i], Client: clientID, Body: q.Body, Initial: q.Initial}
		c.deliver(clientID, q.Origin, sub, start+c.cost.Latency)
	}
	times := make([]time.Duration, len(queries))
	done := make([]bool, len(queries))
	remaining := len(queries)
	c.loop.RunUntil(func() bool {
		if c.err != nil {
			return true
		}
		for i, qid := range qids {
			if !done[i] && c.completes[qid] != nil {
				done[i] = true
				times[i] = c.loop.Now() - start
				remaining--
			}
		}
		return remaining == 0
	})
	if c.err != nil {
		return nil, nil, c.err
	}
	results := make([]*Result, len(queries))
	for i, qid := range qids {
		cm := c.completes[qid]
		if cm == nil {
			return nil, nil, ErrWedged
		}
		delete(c.completes, qid)
		res, err := fromComplete(cm)
		if err != nil {
			return nil, nil, err
		}
		results[i] = res
	}
	return results, times, nil
}

// ExecSeeded submits a query whose initial set is the distributed result set
// of a previous query (the section-5 refinement).
func (c *SimCluster) ExecSeeded(origin object.SiteID, body string, from wire.QueryID) (*Result, time.Duration, error) {
	return c.exec(origin, body, nil, from)
}

// ExecQID is Exec but also returns the query id, for later ExecSeeded use.
func (c *SimCluster) ExecQID(origin object.SiteID, body string, initial []object.ID) (*Result, wire.QueryID, time.Duration, error) {
	qid, res, rt, err := c.execQID(origin, body, initial, wire.QueryID{})
	return res, qid, rt, err
}

func (c *SimCluster) exec(origin object.SiteID, body string, initial []object.ID, from wire.QueryID) (*Result, time.Duration, error) {
	_, res, rt, err := c.execQID(origin, body, initial, from)
	return res, rt, err
}

func (c *SimCluster) execQID(origin object.SiteID, body string, initial []object.ID, from wire.QueryID) (wire.QueryID, *Result, time.Duration, error) {
	c.nextQID++
	qid := wire.QueryID{Origin: origin, Seq: c.nextQID}
	start := c.loop.Now()
	sub := &wire.Submit{
		QID: qid, Client: clientID, Body: body,
		Initial: initial, InitialFromResultOf: from,
	}
	// Client -> originator costs one message like any other.
	c.deliver(clientID, origin, sub, start+c.cost.Latency)
	done := c.loop.RunUntil(func() bool {
		return c.completes[qid] != nil || c.rejects[qid] != nil || c.err != nil
	})
	if c.err != nil {
		return qid, nil, 0, c.err
	}
	if rej := c.rejects[qid]; rej != nil {
		delete(c.rejects, qid)
		return qid, nil, 0, fmt.Errorf("%w: %s", ErrRejected, rej.Reason)
	}
	if !done {
		// Out of events without an answer: abort at the originator for the
		// partial answer, as a client timeout would.
		ss := c.sites[origin]
		for _, env := range ss.s.Abort(qid) {
			c.deliver(origin, env.To, env.Msg, c.loop.Now()+c.cost.Latency)
		}
		c.loop.RunUntil(func() bool { return c.completes[qid] != nil })
		if c.completes[qid] == nil {
			return qid, nil, 0, ErrWedged
		}
	}
	cm := c.completes[qid]
	delete(c.completes, qid)
	res, err := fromComplete(cm)
	if err != nil {
		return qid, nil, 0, err
	}
	return qid, res, c.loop.Now() - start, nil
}
