// Package site implements a HyperFile server site: per-query contexts, the
// "send the query, not the data" protocol of section 3.2, result routing
// directly to the originating site, termination detection, and the
// distributed-set refinement of section 5.
//
// A Site is a transport-agnostic state machine: messages go in through
// HandleMessage, engine work is advanced one object at a time through Step or
// in runs of one context's items through StepN, and both return the envelopes
// to deliver. All sites run an identical
// algorithm, exactly as in the paper. A Site is safe for concurrent use: an
// internal mutex serializes message handling and stepping, so a site has one
// stepper at a time and each query keeps the paper's per-item execution
// order, interleaved across queries.
package site

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/plan"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

// Router supplies each site's knowledge of object locations. The second
// result reports whether the answer is authoritative (see naming.Directory).
type Router interface {
	Owner(object.ID) (object.SiteID, bool)
}

// BirthRouter routes every object to its birth site — the static placement
// used when objects never migrate.
type BirthRouter struct{}

// Owner returns the id's birth site, authoritatively.
func (BirthRouter) Owner(id object.ID) (object.SiteID, bool) { return id.Birth, true }

var _ Router = BirthRouter{}

// Config configures a Site.
type Config struct {
	// ID is this site's identity.
	ID object.SiteID
	// Store holds this site's objects.
	Store *store.Store
	// Router locates objects; nil means BirthRouter.
	Router Router
	// Directory, when set, is this site's mutable naming state (usually the
	// same value as Router); it enables live object migration.
	Directory *naming.Directory
	// Peers lists the other server sites (for the Finish broadcast).
	Peers []object.SiteID
	// GlobalMarks, when non-nil, is a shared global mark table consulted
	// before sending any dereference: a (query, object, start) already sent
	// by anyone is suppressed. This models the design alternative the paper
	// rejects ("the cost in communications and complexity of such a global
	// table would outweigh the cost of the extra messages") as a zero-cost
	// oracle, for ablation measurements.
	GlobalMarks *GlobalMarks
	// Metrics receives runtime counters, gauges, and histograms
	// (per-filter-step work, protocol message counts, termination weight
	// flow, time to quiescence). It is where the site counts every event
	// Stats reports; nil gives the site a private registry. Query tracing is
	// independent of it.
	Metrics *metrics.Registry
	// Traces, when non-nil, turns query tracing on: the site keeps the spans
	// it produced for each query it finishes, as originator or participant,
	// in this ring (MergeTraces assembles a query's sites into one
	// timeline). Nil records no spans.
	Traces *TraceBuffer
	// Tuning and Ablation are the knobs (tuning.go).
	Tuning
	Ablation
}

// Stats counts a site's protocol activity. Each field's metric tag names the
// registry counter it is read from (Site.Stats, StatsOf); that counter is the
// only place the site counts the event.
type Stats struct {
	DerefsSent int `metric:"site_derefs_sent"`
	// DerefEntriesSent counts object ids shipped inside Deref messages; it
	// equals DerefsSent without batching and exceeds it with batching on.
	DerefEntriesSent int `metric:"site_deref_entries_sent"`
	// DerefsBatched counts Deref messages that carried more than one id.
	DerefsBatched int `metric:"hf_deref_batched"`
	// DerefsSuppressed counts remote references never sent because the
	// sender-side sent-cache proved the destination would drop them.
	DerefsSuppressed int `metric:"hf_deref_suppressed"`
	DerefsReceived   int `metric:"site_derefs_received"`
	ResultsSent      int `metric:"site_results_sent"`
	ResultsReceived  int `metric:"site_results_received"`
	ControlsSent     int `metric:"site_controls_sent"`
	ControlsReceived int `metric:"site_controls_received"`
	SeedsSent        int `metric:"site_seeds_sent"`
	SeedsReceived    int `metric:"site_seeds_received"`
	Forwards         int `metric:"site_forwards"`
	Completed        int `metric:"site_completed"`
	MigrationsOut    int `metric:"site_migrations_out"`
	MigrationsIn     int `metric:"site_migrations_in"`
	// PlanCompiles counts query bodies lexed, parsed, and planned at this
	// site; PlanCacheHits counts contexts that reused a cached plan instead.
	PlanCompiles  int `metric:"hf_plan_compiles"`
	PlanCacheHits int `metric:"hf_plan_cache_hits"`
	// Overload protection (Config.MaxInflight / QueryDeadline). Admitted
	// counts Submits that created a context; Rejected counts Submits refused
	// at arrival; Shed counts queued Submits whose deadline expired before a
	// slot opened; Cancelled counts contexts torn down by wire.Cancel;
	// DeadlineExpired counts contexts that ran out of budget.
	Admitted        int `metric:"hf_admitted"`
	Rejected        int `metric:"hf_rejected"`
	Shed            int `metric:"hf_shed"`
	Cancelled       int `metric:"hf_cancelled"`
	DeadlineExpired int `metric:"hf_deadline_expired"`
	// FairDeferred counts scheduling turns (steps and admissions) taken
	// while another client also waited in the same round robin. It stays
	// zero while every query comes from one client.
	FairDeferred int `metric:"hf_fair_deferred"`
	Engine       engine.Stats
}

// Site is one HyperFile server.
type Site struct {
	// mu guards all site state below. Public entry points acquire it;
	// internal helpers assume it is held. It is held across engine calls, so
	// the lock order is strictly site.mu before engine-internal locking —
	// nothing acquires mu while inside an engine call.
	mu       sync.Mutex
	cfg      Config
	contexts map[wire.QueryID]*qctx
	// order preserves context creation order (PeerDown iterates it
	// deterministically).
	order []wire.QueryID
	// ready holds the contexts with working-set items, in round robin over
	// clients (schedule.go). Stepping pops one and re-queues it while work
	// remains, so no step scans idle contexts. A context leaves the queue
	// when it finishes, so no dead entry outlives its query.
	ready rotation[*qctx]

	// inflight counts unfinished contexts (admission control's notion of
	// load); admitQ holds Submits waiting for an inflight slot, in the same
	// round robin as ready.
	inflight int
	admitQ   rotation[pendingSubmit]

	// down marks peers the failure detector has declared dead; dereferences
	// to them are suppressed (and recorded as unreachable) instead of
	// splitting off termination credit that could never return.
	down map[object.SiteID]bool
	// tombs remembers recently finished-and-dropped queries so late or
	// retransmitted messages cannot resurrect a zombie context; tombOrder
	// is FIFO eviction order.
	tombs     map[wire.QueryID]struct{}
	tombOrder []wire.QueryID

	// plans is the body-keyed plan cache, bounded to PlanCacheEntries plans.
	plans *plan.Cache

	// met caches the metric instruments of Config.Metrics.
	met siteMetrics
}

// maxTombstones bounds the finished-query tombstone set; old entries are
// evicted FIFO. A message older than several hundred queries is long past
// any retransmission window.
const maxTombstones = 512

// qctx is the paper's per-site query context: identity, body, working set
// (inside the engine), mark table (inside the engine), local results, and
// detector state.
type qctx struct {
	qid    wire.QueryID
	origin object.SiteID
	body   string
	eng    *engine.Engine
	det    termination.Detector

	isOrigin bool
	finished bool

	// Originator-side accumulation. results collects ids unsorted and with
	// repeats, as drains and Results arrive; answer sorts and dedups it once.
	client      object.SiteID
	results     []object.ID
	fetches     []wire.FetchVal
	count       int
	distributed bool

	// Participant-side retention for the distributed-set refinement.
	retained []object.ID

	// ready records that this context sits in the site's ready queue, so
	// work arriving while queued does not enqueue it twice.
	ready bool
	// lane is the context's client lane in the ready rotation
	// (wire.Submit.ClientID at the originator; 0 for participant contexts),
	// held from creation until the context finishes, then nil.
	lane *lane[*qctx]

	// deadline, when non-zero, is when this context's time budget runs out:
	// derived from the Submit budget (or Config.QueryDeadline) at the
	// originator, and from the Deref/Seed budget at participants. Expiry
	// cancels the query (originator) or sheds the context after returning
	// its credit (participant).
	deadline time.Time
	// draining marks a finished originator context kept only to collect
	// outstanding termination credit after a cancel or expiry; participants
	// never drain. drainUntil bounds the wait; a drain that cannot complete
	// is abandoned there.
	draining   bool
	drainUntil time.Time

	// Batched-deref state, unused under Unbatched: qorder holds the
	// per-(destination, start) outgoing queues since the last full flush in
	// creation order (flushes must be deterministic for the simulator), held
	// counts the engine steps taken with queues since the last full flush,
	// and sent is the sender-side sent-cache mirroring the receivers' mark
	// tables (a pooled packed-key set). All are released when the query
	// finishes at this site.
	qorder []derefQueue
	held   int
	sent   *packed.Set

	// engaged records the remote sites this originator context has sent
	// work to (derefs or seeds), so a peer-death mid-query can tell which
	// queries may have credit parked at the dead site.
	engaged map[object.SiteID]struct{}
	// unreachable collects the sites whose work was skipped because the
	// failure detector declared them dead. At a participant, the set ships
	// to the originator on the next Result; at the originator, it annotates
	// the final Complete.
	unreachable map[object.SiteID]struct{}

	// Trace context (section "cross-site query tracing"). created is when
	// this site joined the query; hop is the dereference depth at which it
	// joined (0 at the originator); spanSeq numbers the spans this site
	// emits for the query, in emission order.
	created time.Time
	hop     uint32
	spanSeq uint64
	// stepAgg accumulates per-filter object counts between drains; filters
	// is its insertion order so span emission is deterministic.
	stepAgg map[int]*spanAgg
	filters []int
	// timeline accumulates the spans this site emitted for the query; the
	// site's trace ring keeps it when the context finishes.
	timeline []Span
}

// spanAgg accumulates one filter's work between drains.
type spanAgg struct {
	in, out uint32
	dur     time.Duration
}

// engage records that this (originator) context sent work to peer.
func (ctx *qctx) engage(peer object.SiteID) {
	if ctx.engaged == nil {
		ctx.engaged = make(map[object.SiteID]struct{})
	}
	ctx.engaged[peer] = struct{}{}
}

// New returns a site with the given configuration. A nil Metrics becomes a
// private registry, a zero DerefBatch becomes DerefBatchSize and, under a
// heartbeat, a zero SuspectAfter becomes four intervals: this is the one
// place defaults are written, so every builder of a Config gets them without
// naming them.
func New(cfg Config) *Site {
	if cfg.Router == nil {
		cfg.Router = BirthRouter{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.DerefBatch == 0 {
		cfg.DerefBatch = DerefBatchSize
	}
	if cfg.HeartbeatInterval > 0 && cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.HeartbeatInterval
	}
	return &Site{
		cfg:      cfg,
		contexts: make(map[wire.QueryID]*qctx),
		met:      newSiteMetrics(cfg.Metrics),
		plans:    plan.NewCache(PlanCacheEntries),
	}
}

// ID returns the site's identity.
func (s *Site) ID() object.SiteID { return s.cfg.ID }

// Config returns the site's configuration with New's defaults filled in.
func (s *Site) Config() Config { return s.cfg }

// Stats reads the site's cumulative protocol and engine counters out of its
// registry; engine work counts as each run of steps ends.
func (s *Site) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsOf(s.cfg.Metrics.Snapshot())
}

// markReady queues a context for stepping if it has work and is not already
// queued. Every code path that adds working-set items (submit seeding,
// deref/seed ingestion, the step loop's own spawns) funnels through here;
// the invariant is that a steppable context is always flagged and queued.
func (s *Site) markReady(ctx *qctx) {
	if ctx.ready || ctx.finished || !ctx.eng.HasWork() {
		return
	}
	ctx.ready = true
	s.ready.push(ctx.lane, ctx)
}

// steppable reports whether a queued context still has work, unflagging it
// when it has none so the queue can drop the entry.
func steppable(ctx *qctx) bool {
	if ctx.eng.HasWork() {
		return true
	}
	ctx.ready = false
	return false
}

// HasWork reports whether any query context has working-set items. Drained
// queue heads are pruned on the way — required for correctness, not just
// tidiness: the ready queue is the only thing consulted, so a stale head left
// in place would make an idle site claim work forever.
func (s *Site) HasWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready.any(steppable)
}

// Contexts returns the number of live query contexts.
func (s *Site) Contexts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.contexts)
}

// ErrProtocol is the base error for messages that violate the protocol.
var ErrProtocol = errors.New("site: protocol error")

// GlobalMarks is a cluster-wide mark table for the ablation described on
// Config.GlobalMarks. It is safe for concurrent use. Marks are indexed per
// query so a finished query's entries can be released instead of
// accumulating for the life of the cluster.
type GlobalMarks struct {
	mu sync.Mutex
	m  map[wire.QueryID]map[sentKey]struct{}
}

// NewGlobalMarks returns an empty global mark table.
func NewGlobalMarks() *GlobalMarks {
	return &GlobalMarks{m: make(map[wire.QueryID]map[sentKey]struct{})}
}

// TestAndSet records the mark and reports whether it was already present.
func (g *GlobalMarks) TestAndSet(qid wire.QueryID, id object.ID, start int) bool {
	k := sentKey{id: id, start: start}
	g.mu.Lock()
	defer g.mu.Unlock()
	per, ok := g.m[qid]
	if !ok {
		per = make(map[sentKey]struct{})
		g.m[qid] = per
	}
	if _, ok := per[k]; ok {
		return true
	}
	per[k] = struct{}{}
	return false
}

// Release drops every mark recorded for qid. Sites call it when they drop
// (or finish retaining) the query's context; releasing an unknown or
// already-released query is a no-op, so every site may call it.
func (g *GlobalMarks) Release(qid wire.QueryID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.m, qid)
}

// Len returns the total number of marks held, across all queries.
func (g *GlobalMarks) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, per := range g.m {
		n += len(per)
	}
	return n
}

// routerLocator adapts a Router to the engine's locality test.
type routerLocator struct {
	r    Router
	self object.SiteID
}

func (l routerLocator) IsLocal(id object.ID) bool {
	owner, _ := l.r.Owner(id)
	return owner == l.self
}

// planFor resolves the physical plan for a query body: out of the plan cache
// when the body was compiled here before (skipping lex, parse, compile, and
// planning entirely), otherwise compiled fresh and cached.
func (s *Site) planFor(body string) (*plan.Plan, error) {
	if cached, hit := s.plans.Get(body); hit {
		s.met.PlanCacheHits.Inc()
		return cached, nil
	}
	s.met.planCacheMisses.Inc()
	start := time.Now()
	// Clone before compiling: the parser aliases its input, so every keyword
	// and field-name literal inside the AST — and therefore inside the built
	// plan, which outlives this message — is a substring of body. A
	// borrowed-decoded body aliases the frame's read buffer, which is
	// recycled after dispatch; a plan aliasing it would silently compare
	// filters against recycled bytes. Compile-path only, so the copy is paid
	// once per compilation, never per message. The clone is also the key the
	// cache entry retains.
	body = strings.Clone(body)
	parsed, err := query.Parse(body)
	if err != nil {
		return nil, err
	}
	compiled, err := query.Compile(parsed)
	if err != nil {
		return nil, err
	}
	p := plan.Build(compiled, nil, nil)
	s.met.PlanCompiles.Inc()
	s.met.planCompileUS.ObserveDuration(time.Since(start))
	s.met.notePlanOps(p.Counts())
	if s.plans.Put(body, p) {
		s.met.planCacheEvictions.Inc()
	}
	return p, nil
}

// newCtx builds a context for a query executing the given plan, scheduled
// under client (wire.Submit.ClientID; 0 for participant work). hop is the
// trace context's dereference depth at which this site joined (0 at the
// origin).
func (s *Site) newCtx(qid wire.QueryID, origin object.SiteID, client uint64, body string, p *plan.Plan, hop uint32) *qctx {
	ctx := &qctx{
		qid:    qid,
		origin: origin,
		// Clone: the context outlives the message that created it, and a
		// borrowed-decoded body string aliases the frame's read buffer,
		// which is released after dispatch.
		body: strings.Clone(body),
		eng: engine.NewPlanned(p, s.cfg.Store,
			engine.WithLocator(routerLocator{r: s.cfg.Router, self: s.cfg.ID}),
			engine.WithOrder(s.cfg.Order)),
		det: termination.NewInstrumented(s.cfg.ID, origin,
			termination.Metrics{Splits: s.met.termSplits, Returns: s.met.termReturns, HandOffs: s.met.termHandOffs}),
		isOrigin: origin == s.cfg.ID,
		lane:     s.ready.hold(client),
	}
	ctx.created = time.Now()
	ctx.hop = hop
	if s.cfg.TermAudit != nil {
		ctx.det = s.cfg.TermAudit.Wrap(qid.String(), ctx.det)
	}
	s.contexts[qid] = ctx
	s.order = append(s.order, qid)
	s.inflight++
	s.met.liveContexts.Set(int64(len(s.contexts)))
	return ctx
}

// finishCtx marks a context finished exactly once: it releases the admission
// slot, records the end-to-end latency at the originator and the context's
// trace entry (partial says the originator's answer is), and takes the
// context out of the ready queue and off its client lane, which is freed with
// the client's last context. Every transition to the finished state funnels
// through here.
func (s *Site) finishCtx(ctx *qctx, partial bool) {
	if ctx.finished {
		return
	}
	ctx.finished = true
	s.inflight--
	if ctx.ready {
		s.ready.remove(ctx.lane, ctx)
		ctx.ready = false
	}
	s.ready.release(ctx.lane)
	ctx.lane = nil
	elapsed := time.Since(ctx.created)
	if ctx.isOrigin {
		s.met.queryLatencyUS.ObserveDuration(elapsed)
		s.met.quiescenceUS.ObserveDuration(elapsed)
	}
	s.recordTrace(ctx, partial, elapsed)
}

// ctxFor returns the context for qid, creating it from a Deref/Seed message
// when this site sees the query for the first time ("the setup cost
// associated with the query is only required once at each involved site");
// created reports that it did. The body keys the plan cache lookup: a hit
// reuses a plan compiled for an earlier query with the same body, so the
// setup cost is paid once per distinct body, not once per query. start is
// the filter the message's objects begin at (0 for a Seed): any peer can
// send one, so a start outside [0, number of filters] is refused before a
// context exists.
func (s *Site) ctxFor(qid wire.QueryID, origin object.SiteID, body string, hop uint32, start int) (ctx *qctx, created bool, err error) {
	ctx, ok := s.contexts[qid]
	var p *plan.Plan
	if ok {
		p = ctx.eng.Plan()
	} else if p, err = s.planFor(body); err != nil {
		return nil, false, fmt.Errorf("%w: query %v body does not compile: %v", ErrProtocol, qid, err)
	}
	if start < 0 || start > p.Len() {
		return nil, false, fmt.Errorf("%w: query %v start %d outside [0, %d]", ErrProtocol, qid, start, p.Len())
	}
	if !ok {
		ctx = s.newCtx(qid, origin, 0, body, p, hop)
	}
	return ctx, !ok, nil
}

// creditWork credits a Deref's or Seed's termination token to ctx. A token
// that does not decode is refused, and a context the message created is
// removed again, without a tombstone: it would hold no credit, so no Finish
// would ever reach it, and a later valid message for the query must still
// run.
func (s *Site) creditWork(ctx *qctx, created bool, from object.SiteID, token []byte) error {
	if _, err := ctx.det.OnWorkReceived(from, token); err != nil {
		if created {
			s.removeCtx(ctx)
		}
		return err
	}
	return nil
}

// dropCtx removes a context, leaving a tombstone so stragglers cannot
// resurrect the query.
func (s *Site) dropCtx(qid wire.QueryID) {
	ctx, ok := s.contexts[qid]
	if !ok {
		return
	}
	s.removeCtx(ctx)
	s.tombstone(qid)
}

// removeCtx finishes ctx, releases its resources and forgets it.
func (s *Site) removeCtx(ctx *qctx) {
	qid := ctx.qid
	s.finishCtx(ctx, false)
	s.releaseQueryResources(ctx)
	delete(s.contexts, qid)
	s.met.liveContexts.Set(int64(len(s.contexts)))
	for i, id := range s.order {
		if id == qid {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// tombstone records a finished query id, evicting the oldest past the cap.
func (s *Site) tombstone(qid wire.QueryID) {
	if s.tombs == nil {
		s.tombs = make(map[wire.QueryID]struct{})
	}
	if _, ok := s.tombs[qid]; ok {
		return
	}
	s.tombs[qid] = struct{}{}
	s.tombOrder = append(s.tombOrder, qid)
	if len(s.tombOrder) > maxTombstones {
		delete(s.tombs, s.tombOrder[0])
		s.tombOrder = s.tombOrder[1:]
	}
}

// tombstoned reports whether qid finished here recently; messages for it
// are late arrivals or retransmissions and must not recreate a context.
func (s *Site) tombstoned(qid wire.QueryID) bool {
	_, ok := s.tombs[qid]
	return ok
}

// noteUnreachable records that work for ctx destined to peer was skipped
// because peer is considered dead.
func (s *Site) noteUnreachable(ctx *qctx, peer object.SiteID) {
	if ctx.unreachable == nil {
		ctx.unreachable = make(map[object.SiteID]struct{})
	}
	ctx.unreachable[peer] = struct{}{}
}

// takeUnreachable drains ctx's unreachable set in sorted order (a
// participant ships it once per drain; re-skips repopulate it).
func (s *Site) takeUnreachable(ctx *qctx) []object.SiteID {
	list := unreachableList(ctx)
	ctx.unreachable = nil
	return list
}

// unreachableList returns ctx's unreachable set in sorted order.
func unreachableList(ctx *qctx) []object.SiteID {
	if len(ctx.unreachable) == 0 {
		return nil
	}
	list := make([]object.SiteID, 0, len(ctx.unreachable))
	for p := range ctx.unreachable {
		list = append(list, p)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	return list
}

// PeerDown marks a peer dead. Dereferences to it are suppressed from now
// on (recorded as unreachable instead of parking termination credit at a
// corpse), and every unfinished originator context already engaged with the
// peer is force-completed: its parked credit can never return, so waiting
// for regular termination would hang the query forever. The returned
// envelopes deliver the partial answers and tell live peers to clean up.
// Participant contexts whose originator died are discarded — nobody is
// left to collect their results.
func (s *Site) PeerDown(peer object.SiteID) []wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down == nil {
		s.down = make(map[object.SiteID]bool)
	}
	if s.down[peer] {
		return nil
	}
	s.down[peer] = true
	var out []wire.Envelope
	qids := append([]wire.QueryID(nil), s.order...)
	for _, qid := range qids {
		ctx := s.contexts[qid]
		if ctx == nil || ctx.finished {
			continue
		}
		if ctx.isOrigin {
			if _, engaged := ctx.engaged[peer]; engaged {
				s.noteUnreachable(ctx, peer)
				out = append(out, s.forceComplete(ctx)...)
			}
		} else if ctx.origin == peer {
			s.dropCtx(qid)
		}
	}
	// Force-completions freed admission slots; queued Submits may proceed.
	// A drain error here is a protocol violation on a freshly admitted
	// context, which cannot happen (a new originator holds its full credit).
	drained, _ := s.drainAdmission()
	return append(out, drained...)
}

// PeerUp clears a peer's dead mark after the failure detector hears from it
// again. Queries already force-completed stay completed; new work flows to
// the peer normally.
func (s *Site) PeerUp(peer object.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.down, peer)
}

// PeerIsDown reports whether the failure detector has declared peer dead.
func (s *Site) PeerIsDown(peer object.SiteID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down[peer]
}
