// Package site implements a HyperFile server site: per-query contexts, the
// "send the query, not the data" protocol of section 3.2, result routing
// directly to the originating site, termination detection, and the
// distributed-set refinement of section 5.
//
// A Site is a transport-agnostic state machine: messages go in through
// HandleMessage, engine work is advanced one object at a time through Step,
// and both return the envelopes to deliver. All sites run an identical
// algorithm, exactly as in the paper. A Site is safe for concurrent use: a
// runner may call Step from a pool of worker goroutines while message
// handlers run, subject to Config.Workers. Site bookkeeping is serialized by
// an internal mutex; the mutex is released while a step's filters evaluate,
// and each query context is pinned to the worker stepping it, so parallelism
// happens across query contexts, never within one — exactly the paper's
// per-item execution order per query, interleaved across queries.
package site

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/index"
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
	// Order is the working-set discipline.
	Order engine.Order
	// ResultBatch caps ids per Result message; 0 means unbounded.
	ResultBatch int
	// DistributedSetThreshold, when positive, makes a participant withhold
	// its local result ids and report only a count whenever a drain yields
	// more than this many results (the paper's distributed-set refinement).
	DistributedSetThreshold int
	// DerefBatch caps the object ids per outgoing Deref message: remote
	// dereferences coalesce into per-destination batches, and a sender-side
	// sent-cache suppresses re-sends the destination's mark table would
	// reject anyway. Zero means DerefBatchSize, the protocol hyperfiled runs;
	// Unbatched (any negative value) is the paper's one-object-per-message
	// protocol exactly.
	DerefBatch int
	// TermAudit, when non-nil, wraps every query's termination detector in
	// the conservation checker (test-only): the sum of held, recovered, and
	// in-flight credit must stay exactly 1 after every detector event.
	TermAudit *termination.Audit
	// GlobalMarks, when non-nil, is a shared global mark table consulted
	// before sending any dereference: a (query, object, start) already sent
	// by anyone is suppressed. This models the design alternative the paper
	// rejects ("the cost in communications and complexity of such a global
	// table would outweigh the cost of the extra messages") as a zero-cost
	// oracle, for ablation measurements.
	GlobalMarks *GlobalMarks
	// Metrics, when non-nil, receives runtime counters, gauges, and
	// histograms (per-filter-step work, protocol message counts, termination
	// weight flow, time to quiescence). Nil disables metric accounting at
	// zero cost; query tracing is independent of it and always on.
	Metrics *metrics.Registry
	// Traces, when non-nil, retains the assembled cross-site timeline of
	// each query completed at this site (as originator) for debugging.
	Traces *TraceBuffer
	// Index, when non-nil, is this site's keyword index over Store (kept
	// consistent via store.AttachIndex). The planner pushes exact-match
	// selections down to it: negative probes skip tuple scans, and pure
	// probes at filter 0 prune the initial set. Nil plans without pushdown.
	Index *index.Keyword
	// PlanCacheSize, when positive, enables the site-level plan cache with
	// at most this many unpinned entries: a query body already compiled here
	// (recognized by fingerprint, verified by body text) reuses its physical
	// plan across query contexts, skipping lex, parse, and compile. Zero
	// disables caching; every context compiles its own plan.
	PlanCacheSize int
	// MaxInflight, when positive, bounds the unfinished query contexts this
	// site will hold. Submits beyond the bound wait in a bounded admission
	// queue (AdmissionQueue) or are refused with wire.Reject. Work messages
	// (Deref, Seed) are always accepted — refusing them would strand
	// termination credit. Zero admits everything (the paper's behavior).
	MaxInflight int
	// AdmissionQueue bounds how many Submits may wait for an admission slot
	// when the site is at MaxInflight. Zero means no queue: over-limit
	// Submits are rejected immediately.
	AdmissionQueue int
	// QueryDeadline, when positive, is the default time budget an originator
	// imposes on queries whose Submit carries none. The remaining budget
	// propagates on every outgoing Deref/Seed, and an expired query
	// completes as an annotated partial answer. Zero imposes no default.
	QueryDeadline time.Duration
	// Workers is the number of goroutines the runner drives this site with.
	// The Site itself is safe at any worker count; the knob lives here so
	// runners (LocalCluster, the TCP server, the simulator's cost model) and
	// the site agree on one configured value. Zero or one is the paper's
	// single-threaded stepping, exactly.
	Workers int
	// FairQuantum, when positive, replaces FIFO scheduling with per-client
	// deficit-round-robin fairness: each client id (wire.Submit.ClientID;
	// participant work buckets under client 0) gets this many engine steps —
	// and this many admissions — per scheduling turn before the next client
	// is served. The scheduler is work-conserving: a lone client is never
	// throttled. Zero keeps the exact FIFO/round-robin order of the paper.
	FairQuantum int
}

// Stats counts a site's protocol activity.
type Stats struct {
	DerefsSent int
	// DerefEntriesSent counts object ids shipped inside Deref messages; it
	// equals DerefsSent without batching and exceeds it with batching on.
	DerefEntriesSent int
	// DerefsBatched counts Deref messages that carried more than one id.
	DerefsBatched int
	// DerefsSuppressed counts remote references never sent because the
	// sender-side sent-cache proved the destination would drop them.
	DerefsSuppressed int
	DerefsReceived   int
	ResultsSent      int
	ResultsReceived  int
	ControlsSent     int
	ControlsReceived int
	SeedsSent        int
	SeedsReceived    int
	Forwards         int
	Completed        int
	MigrationsOut    int
	MigrationsIn     int
	// PlanCompiles counts query bodies lexed, parsed, and planned at this
	// site; PlanCacheHits counts contexts that reused a cached plan instead.
	PlanCompiles  int
	PlanCacheHits int
	// Overload protection (Config.MaxInflight / QueryDeadline). Admitted
	// counts Submits that created a context; Rejected counts Submits refused
	// at arrival; Shed counts queued Submits whose deadline expired before a
	// slot opened; Cancelled counts contexts torn down by wire.Cancel;
	// DeadlineExpired counts contexts that ran out of budget.
	Admitted        int
	Rejected        int
	Shed            int
	Cancelled       int
	DeadlineExpired int
	// FairDeferred counts scheduling turns where a client with queued work
	// was passed over because its deficit-round-robin quantum was spent
	// (Config.FairQuantum). Zero with fairness off.
	FairDeferred int
	Engine       engine.Stats
}

// Site is one HyperFile server.
type Site struct {
	// mu guards all site state below. Public entry points acquire it;
	// internal helpers assume it is held. Step releases it while a context's
	// engine evaluates filters (the context stays pinned via qctx.stepping),
	// so the lock order is strictly site.mu before engine-internal locking —
	// nothing acquires mu while inside an engine call.
	mu       sync.Mutex
	cfg      Config
	contexts map[wire.QueryID]*qctx
	// order preserves context creation order (PeerDown iterates it
	// deterministically).
	order []wire.QueryID
	// ready is the FIFO queue of contexts believed to have working-set
	// items. Stepping pops the head and re-appends it while work remains,
	// which is round-robin over the contexts that actually have work —
	// replacing an O(contexts) scan per step with O(1) queue operations.
	// Entries can go stale (a context drains, finishes, or is dropped while
	// queued); consumers prune them lazily against the per-context ready
	// flag and the engine's own working set. readyStale counts the queued
	// entries whose context has finished or been dropped — when they
	// outnumber the live entries the queue is compacted, so a long-lived
	// site's queue cannot grow without bound on lazily-pruned garbage.
	ready      []wire.QueryID
	readyStale int
	// fair, when non-nil (Config.FairQuantum > 0), replaces the FIFO ready
	// queue with per-client deficit-round-robin buckets; fairAdmit is the
	// admission queue's matching DRR state.
	fair      *fairSched
	fairAdmit fairAdmitState
	stats     Stats

	// inflight counts unfinished contexts (admission control's notion of
	// load); admitQ holds Submits waiting for an inflight slot.
	inflight int
	admitQ   []pendingSubmit

	// down marks peers the failure detector has declared dead; dereferences
	// to them are suppressed (and recorded as unreachable) instead of
	// splitting off termination credit that could never return.
	down map[object.SiteID]bool
	// tombs remembers recently finished-and-dropped queries so late or
	// retransmitted messages cannot resurrect a zombie context; tombOrder
	// is FIFO eviction order.
	tombs     map[wire.QueryID]struct{}
	tombOrder []wire.QueryID

	// plans is the body-fingerprint-keyed plan cache (nil when disabled).
	plans *plan.Cache

	// met caches the metric instruments (all nil when Config.Metrics is).
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
	// stepping pins this context to the one worker currently running its
	// engine step. The pop from the ready queue and this flag are set in the
	// same critical section, and markReady refuses a pinned context — so work
	// arriving while the site lock is released for the step can never requeue
	// the context and hand it to a second worker. The stepping worker clears
	// the pin and re-marks readiness itself when the step completes.
	stepping bool
	// fairClient is the submitting client's fairness bucket
	// (wire.Submit.ClientID at the originator; 0 for participant contexts).
	fairClient uint64

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

	// fp is the body's fingerprint, stamped on outgoing Deref messages so
	// receivers can consult their plan caches without rehashing. planPinned
	// records that this context holds a pin on the site cache's plan entry,
	// released exactly once with the rest of the query's resources.
	fp         query.Fingerprint
	planPinned bool

	// Batched-deref state, unused under Unbatched: qorder holds the
	// per-(destination, cursor) outgoing queues since the last full flush in
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
	// emits for the query, so the originator can dedup retransmissions.
	created time.Time
	hop     uint32
	spanSeq uint64
	// stepAgg accumulates per-filter object counts between drains; filters
	// is its insertion order so span emission is deterministic.
	stepAgg map[int]*spanAgg
	filters []int
	// pendingSpans holds spans awaiting a message to carry them toward the
	// originator (participant side): this site's own, and those that arrived
	// on Derefs carrying another site's credit.
	pendingSpans []wire.Span
	// Originator side: timeline accumulates every span (own and remote),
	// seenSpans dedups remote spans by (site, seq).
	timeline  []wire.Span
	seenSpans map[spanKey]struct{}
}

// spanAgg accumulates one filter's work between drains.
type spanAgg struct {
	in, out uint32
	dur     time.Duration
}

// spanKey identifies a span for originator-side dedup.
type spanKey struct {
	site object.SiteID
	seq  uint64
}

// engage records that this (originator) context sent work to peer.
func (ctx *qctx) engage(peer object.SiteID) {
	if ctx.engaged == nil {
		ctx.engaged = make(map[object.SiteID]struct{})
	}
	ctx.engaged[peer] = struct{}{}
}

// New returns a site with the given configuration. A zero DerefBatch becomes
// DerefBatchSize here, the one place the production protocol is written down,
// so every builder of a Config gets it without naming it.
func New(cfg Config) *Site {
	if cfg.Router == nil {
		cfg.Router = BirthRouter{}
	}
	if cfg.DerefBatch == 0 {
		cfg.DerefBatch = DerefBatchSize
	}
	s := &Site{
		cfg:      cfg,
		contexts: make(map[wire.QueryID]*qctx),
		met:      newSiteMetrics(cfg.Metrics),
	}
	if cfg.PlanCacheSize > 0 {
		s.plans = plan.NewCache(cfg.PlanCacheSize)
	}
	if cfg.FairQuantum > 0 {
		s.fair = newFairSched(cfg.FairQuantum)
	}
	return s
}

// ID returns the site's identity.
func (s *Site) ID() object.SiteID { return s.cfg.ID }

// Stats returns cumulative protocol statistics including engine work of all
// live contexts.
func (s *Site) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Site) statsLocked() Stats {
	st := s.stats
	for _, ctx := range s.contexts {
		st.Engine.Add(ctx.eng.Stats())
	}
	return st
}

// markReady queues a context for stepping if it has work and is not already
// queued. Every code path that adds working-set items (submit seeding,
// deref/seed ingestion, the step loop's own spawns) funnels through here;
// the invariant is that a steppable context is always flagged and queued.
// A pinned context (a worker is mid-step on it) is skipped: the stepping
// worker re-marks readiness itself after clearing the pin, so the work is
// never lost — it just cannot hand the context to a second worker.
func (s *Site) markReady(ctx *qctx) {
	if ctx.ready || ctx.stepping || ctx.finished || !ctx.eng.HasWork() {
		return
	}
	ctx.ready = true
	if s.fair != nil {
		s.fair.push(ctx.fairClient, ctx.qid)
		return
	}
	s.ready = append(s.ready, ctx.qid)
}

// HasWork reports whether any query context has working-set items. Stale
// queue heads (drained, finished, or dropped contexts) are pruned on the
// way — required for correctness, not just tidiness: the ready queue is the
// only thing consulted, so a stale head left in place would make an idle
// site claim work forever. A context pinned mid-step is invisible here; its
// worker re-marks it when the step completes.
func (s *Site) HasWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fair != nil {
		return s.fairHasWork()
	}
	for len(s.ready) > 0 {
		ctx := s.contexts[s.ready[0]]
		if ctx != nil && ctx.ready && !ctx.finished && ctx.eng.HasWork() {
			return true
		}
		if ctx == nil || ctx.finished {
			s.readyStale--
		}
		if ctx != nil {
			ctx.ready = false
		}
		s.ready = s.ready[1:]
	}
	return false
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
// when enabled and the body was compiled here before (skipping lex, parse,
// compile, and planning entirely), otherwise compiled fresh and installed.
// hash, when it is a full 32-byte fingerprint of body (wire.Deref.BodyHash),
// saves rehashing; anything else and the body is hashed locally. pinned
// reports that the plan holds a cache pin the owning context must release.
func (s *Site) planFor(body string, hash []byte) (p *plan.Plan, fp query.Fingerprint, pinned bool, err error) {
	fp, ok := query.FingerprintFromBytes(hash)
	if !ok {
		fp = query.FingerprintOf(body)
	}
	if s.plans != nil {
		if cached, hit := s.plans.Acquire(fp, body); hit {
			s.stats.PlanCacheHits++
			s.met.planCacheHits.Inc()
			return cached, fp, true, nil
		}
		s.met.planCacheMisses.Inc()
	}
	start := time.Now()
	// Clone before compiling: the parser aliases its input, so every keyword
	// and field-name literal inside the AST — and therefore inside the built
	// plan, which outlives this message — is a substring of body. A
	// borrowed-decoded body aliases the frame's read buffer, which is
	// recycled after dispatch; a plan aliasing it would silently compare
	// filters against recycled bytes. Compile-path only, so the copy is paid
	// once per compilation, never per message.
	body = strings.Clone(body)
	parsed, err := query.Parse(body)
	if err != nil {
		return nil, fp, false, err
	}
	compiled, err := query.Compile(parsed)
	if err != nil {
		return nil, fp, false, err
	}
	p = plan.Build(compiled, s.cfg.Store, s.cfg.Index)
	s.stats.PlanCompiles++
	s.met.planCompileUS.ObserveDuration(time.Since(start))
	s.met.notePlanOps(p.Counts())
	if s.plans != nil {
		// body is already a private clone (above), safe for the cache entry
		// to retain.
		if ev := s.plans.Install(fp, body, p); ev > 0 {
			s.met.planCacheEvictions.Add(uint64(ev))
		}
		pinned = true
	}
	return p, fp, pinned, nil
}

// newCtx builds a context for a query executing the given plan. hop is the
// trace context's dereference depth at which this site joined (0 at the
// origin). fp and pinned come from planFor.
func (s *Site) newCtx(qid wire.QueryID, origin object.SiteID, body string, p *plan.Plan, fp query.Fingerprint, pinned bool, hop uint32) *qctx {
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
		isOrigin:   origin == s.cfg.ID,
		fp:         fp,
		planPinned: pinned,
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
// slot, records the end-to-end latency at the originator, and accounts its
// (now stale) ready-queue entry. Every transition to the finished state
// funnels through here.
func (s *Site) finishCtx(ctx *qctx) {
	if ctx.finished {
		return
	}
	ctx.finished = true
	s.inflight--
	if ctx.ready && s.fair == nil {
		// Fair-mode buckets prune their own stale entries at every visit;
		// the stale counter and compaction belong to the FIFO queue only.
		s.readyStale++
		s.compactReady()
	}
	if ctx.isOrigin {
		s.met.queryLatencyUS.ObserveDuration(time.Since(ctx.created))
	}
}

// compactReady rebuilds the ready queue without its dead entries once they
// outnumber the live ones. Lazy pruning alone only removes stale entries
// that reach the queue head; on a long-lived site with persistent load the
// head keeps being re-taken by live contexts and mid-queue garbage from
// thousands of finished queries would otherwise accumulate forever.
func (s *Site) compactReady() {
	if s.readyStale*2 <= len(s.ready) {
		return
	}
	live := s.ready[:0]
	for _, qid := range s.ready {
		if ctx := s.contexts[qid]; ctx != nil && ctx.ready && !ctx.finished {
			live = append(live, qid)
		}
	}
	// Drop the tail so stale ids do not linger in the backing array.
	tail := s.ready[len(live):]
	for i := range tail {
		tail[i] = wire.QueryID{}
	}
	s.ready = live
	s.readyStale = 0
}

// ctxFor returns the context for qid, creating it from a Deref/Seed message
// when this site sees the query for the first time ("the setup cost
// associated with the query is only required once at each involved site").
// bodyHash, when carried by the message, keys the plan-cache lookup: a hit
// reuses a plan compiled for an earlier query with the same body, so the
// setup cost is paid once per distinct body, not once per query.
func (s *Site) ctxFor(qid wire.QueryID, origin object.SiteID, body string, bodyHash []byte, hop uint32) (*qctx, error) {
	if ctx, ok := s.contexts[qid]; ok {
		return ctx, nil
	}
	p, fp, pinned, err := s.planFor(body, bodyHash)
	if err != nil {
		return nil, fmt.Errorf("%w: query %v body does not compile: %v", ErrProtocol, qid, err)
	}
	return s.newCtx(qid, origin, body, p, fp, pinned, hop), nil
}

// dropCtx removes a context, folding its engine statistics into the site's
// and leaving a tombstone so stragglers cannot resurrect the query.
func (s *Site) dropCtx(qid wire.QueryID) {
	ctx, ok := s.contexts[qid]
	if !ok {
		return
	}
	s.finishCtx(ctx)
	s.releaseQueryResources(ctx)
	s.stats.Engine.Add(ctx.eng.Stats())
	delete(s.contexts, qid)
	s.met.liveContexts.Set(int64(len(s.contexts)))
	for i, id := range s.order {
		if id == qid {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.tombstone(qid)
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
