package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
)

// ErrTimeout is returned when a query misses its deadline; the accompanying
// Result (if any) is partial.
var ErrTimeout = errors.New("cluster: query timed out")

// ErrClosed is returned when submitting to a closed cluster.
var ErrClosed = errors.New("cluster: closed")

// LocalCluster runs one server.Server per site — the same runtime hyperfiled
// deploys — over loopback transport.TCP, and talks to them through a client
// endpoint of its own. Every endpoint judges its frames with one shared
// chaos.Injector. The cluster itself only wires the endpoints together,
// decides who can reach whom (SetDown), and holds the client's waiters.
type LocalCluster struct {
	ids     []object.SiteID
	servers map[object.SiteID]*server.Server
	stores  map[object.SiteID]*store.Store
	dirs    map[object.SiteID]*naming.Directory
	inj     *chaos.Injector
	tr      *transport.TCP

	mu         sync.Mutex
	nextQID    uint64
	waiters    map[wire.QueryID]chan queryReply
	migWaiters map[uint64]chan *wire.Migrated
	closed     bool
	firstErr   error
}

// queryReply is what resolves a waiting Exec: a completion, or an admission
// rejection.
type queryReply struct {
	complete *wire.Complete
	reject   *wire.Reject
}

// quiet discards the servers' logs: failures surface through Err and the
// query results, and a partitioned test cluster would otherwise flood the
// test output with detector warnings.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// NewLocal builds and starts a cluster of n sites. It panics if it cannot
// listen on a loopback address, which only a host without loopback hits.
func NewLocal(n int, opts Options) *LocalCluster {
	c := &LocalCluster{
		ids:        siteIDs(n),
		servers:    make(map[object.SiteID]*server.Server, n),
		stores:     make(map[object.SiteID]*store.Store, n),
		dirs:       make(map[object.SiteID]*naming.Directory, n),
		waiters:    make(map[wire.QueryID]chan queryReply),
		migWaiters: make(map[uint64]chan *wire.Migrated),
	}
	cc := chaos.Config{Seed: 1}
	if opts.Chaos != nil {
		cc = *opts.Chaos
	}
	c.inj = chaos.NewInjector(cc)
	tr, err := transport.ListenTCPOpts(clientID, "127.0.0.1:0", c.receive, transport.Options{Fault: c.inj})
	if err != nil {
		panic(fmt.Sprintf("cluster: client endpoint: %v", err))
	}
	c.tr = tr
	srvOpts := server.Options{Transport: transport.Options{Fault: c.inj}}
	for _, cfg := range siteConfigs(c.ids, opts) {
		id := cfg.ID
		c.stores[id] = cfg.Store
		if cfg.Directory != nil {
			c.dirs[id] = cfg.Directory
		}
		srv, err := server.NewOpts(cfg, "127.0.0.1:0", quiet, srvOpts)
		if err != nil {
			panic(fmt.Sprintf("cluster: site %v: %v", id, err))
		}
		c.servers[id] = srv
	}
	// Every endpoint knows every other before the first query: no server
	// sends before a client request reaches it.
	for _, a := range c.servers {
		a.AddPeer(clientID, c.tr.Addr())
		c.tr.AddPeer(a.ID(), a.Addr())
		for _, b := range c.servers {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	return c
}

// Injector exposes the fault injector every endpoint consults, so tests can
// partition and heal links at runtime.
func (c *LocalCluster) Injector() *chaos.Injector { return c.inj }

// Sites returns the site ids.
func (c *LocalCluster) Sites() []object.SiteID { return c.ids }

// Store returns a site's store for loading and inspection.
func (c *LocalCluster) Store(id object.SiteID) *store.Store { return c.stores[id] }

// Directory returns a site's naming directory (nil unless UseNaming).
func (c *LocalCluster) Directory(id object.SiteID) *naming.Directory { return c.dirs[id] }

// Metrics returns a site's metrics registry. Snapshot it rather than reading
// instruments while queries run.
func (c *LocalCluster) Metrics(id object.SiteID) *metrics.Registry { return c.servers[id].Metrics() }

// PeerIsDown reports whether site at currently suspects peer dead (always
// false without the failure detector). Tests poll this instead of sleeping
// for a detector interval.
func (c *LocalCluster) PeerIsDown(at, peer object.SiteID) bool {
	srv, ok := c.servers[at]
	return ok && srv.PeerIsDown(peer)
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

// SiteStats snapshots a site's statistics. The site may be mutating them
// concurrently, so call this only when the cluster is idle (between
// queries) for exact values.
func (c *LocalCluster) SiteStats(id object.SiteID) site.Stats { return c.servers[id].Stats() }

// SiteContexts reports a site's live query-context count, read on the site
// goroutine so the value is consistent with message processing. Tests poll it
// to confirm cancelled or expired queries drained instead of lingering.
func (c *LocalCluster) SiteContexts(id object.SiteID) int { return c.servers[id].Contexts() }

// SetDown simulates a crashed site by partitioning (down) or healing every
// link of id, the client's included. The site keeps running, but nothing it
// sends or is sent arrives, which is a crash as its peers see it. Healing
// restores every link of id, including any a test cut through Injector.
func (c *LocalCluster) SetDown(id object.SiteID, down bool) {
	for _, peer := range append([]object.SiteID{clientID}, c.ids...) {
		if down {
			c.inj.Partition(id, peer)
		} else {
			c.inj.Heal(id, peer)
		}
	}
}

// Close stops the servers, then the client endpoint.
func (c *LocalCluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, srv := range c.servers {
		srv.Close()
	}
	_ = c.tr.Close()
}

// receive is the client endpoint's handler: each reply resolves the waiter it
// answers.
func (c *LocalCluster) receive(from object.SiteID, m wire.Msg) {
	switch m := m.(type) {
	case *wire.Complete:
		c.reply(m.QID, queryReply{complete: m})
	case *wire.Reject:
		c.reply(m.QID, queryReply{reject: m})
	case *wire.Migrated:
		c.mu.Lock()
		ch := c.migWaiters[m.Seq]
		delete(c.migWaiters, m.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	default:
		// Sites address only completions, rejections and migration acks to
		// the client; anything else is a protocol bug.
		c.fail(fmt.Errorf("cluster: site %v sent the client an unexpected %v", from, m.Kind()))
	}
}

func (c *LocalCluster) reply(qid wire.QueryID, r queryReply) {
	c.mu.Lock()
	ch := c.waiters[qid]
	delete(c.waiters, qid)
	c.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

func (c *LocalCluster) fail(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

// send is a client request to site to. The transport refuses only a closed
// endpoint, an unknown site or a full backlog, which the callers rule out or
// recover from by timing out, so the error is dropped like a lost message.
func (c *LocalCluster) send(to object.SiteID, m wire.Msg) {
	_ = c.tr.Send(to, m)
}

// MigrateLive moves an object between sites through the live migration
// protocol (unlike Move, which bypasses the sites at setup time). Requires
// UseNaming.
func (c *LocalCluster) MigrateLive(id object.ID, to object.SiteID, timeout time.Duration) error {
	if _, ok := c.servers[id.Birth]; !ok {
		return fmt.Errorf("cluster: unknown birth site %v", id.Birth)
	}
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

	c.send(id.Birth, &wire.Migrate{Seq: seq, ID: id, To: to, Client: clientID})
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

// ExecAs is Exec under a client identity: clientID rides the Submit
// (wire.Submit.ClientID), and the origin site admits and steps this query in
// round robin against other clients' work (site.Step).
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
	origin, budget := spec.origin, spec.budget
	if _, ok := c.servers[origin]; !ok {
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

	sub := &wire.Submit{QID: qid, Client: clientID, Body: spec.body, Initial: spec.initial,
		InitialFromResultOf: spec.from, ClientID: spec.clientID}
	if budget > 0 {
		sub.BudgetUS = uint64(budget.Microseconds())
		if sub.BudgetUS == 0 {
			sub.BudgetUS = 1 // sub-microsecond budgets round up, not off
		}
	}
	c.send(origin, sub)

	timer := time.NewTimer(spec.timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return c.resolve(r, qid)
	case <-timer.C:
		// Abort at the originator; it will deliver a partial Complete (or a
		// Reject, if the query was still waiting for admission).
		c.Cancel(qid)
		select {
		case r := <-ch:
			res, _, err := c.resolve(r, qid)
			if err != nil {
				return nil, qid, err
			}
			return res, qid, ErrTimeout
		case <-time.After(5 * time.Second):
			if err := c.Err(); err != nil {
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
	if _, ok := c.servers[qid.Origin]; !ok {
		return
	}
	c.send(qid.Origin, &wire.Cancel{QID: qid, Reason: "cancelled by client"})
}

// Err returns the first internal error the client endpoint or any site hit
// (nil normally).
func (c *LocalCluster) Err() error {
	c.mu.Lock()
	err := c.firstErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for _, id := range c.ids {
		if err := c.servers[id].Err(); err != nil {
			return err
		}
	}
	return nil
}
