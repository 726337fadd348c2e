package cluster

import (
	"fmt"
	"io"
	"log/slog"
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
// Result (if any) is partial. It is the network client's sentinel.
var ErrTimeout = server.ErrTimeout

// ErrClosed is returned when submitting to a closed cluster: the client's
// transport refuses the send.
var ErrClosed = transport.ErrClosed

// LocalCluster runs one server.Server per site — the same runtime hyperfiled
// deploys — over loopback transport.TCP, and queries them through one
// server.Client, the client hfquery runs. Every endpoint judges its frames
// with one shared chaos.Injector. The cluster itself only wires the
// endpoints together and decides who can reach whom (SetDown).
type LocalCluster struct {
	ids     []object.SiteID
	servers map[object.SiteID]*server.Server
	stores  map[object.SiteID]*store.Store
	dirs    map[object.SiteID]*naming.Directory
	inj     *chaos.Injector
	client  *server.Client
}

// quiet discards the servers' logs: failures surface through Err and the
// query results, and a partitioned test cluster would otherwise flood the
// test output with detector warnings.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// NewLocal builds and starts a cluster of n sites. It panics if it cannot
// listen on a loopback address, which only a host without loopback hits.
func NewLocal(n int, opts Options) *LocalCluster {
	c := &LocalCluster{
		ids:     siteIDs(n),
		servers: make(map[object.SiteID]*server.Server, n),
		stores:  make(map[object.SiteID]*store.Store, n),
		dirs:    make(map[object.SiteID]*naming.Directory, n),
	}
	cc := chaos.Config{Seed: 1}
	if opts.Chaos != nil {
		cc = *opts.Chaos
	}
	c.inj = chaos.NewInjector(cc)
	client, err := server.NewClientOpts(clientID, "127.0.0.1:0", transport.Options{Fault: c.inj})
	if err != nil {
		panic(fmt.Sprintf("cluster: client endpoint: %v", err))
	}
	c.client = client
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
		a.AddPeer(clientID, c.client.Addr())
		c.client.AddServer(a.ID(), a.Addr())
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

// TotalStats sums protocol statistics over all sites, with SiteStats'
// caveat.
func (c *LocalCluster) TotalStats() site.Stats { return totalStats(c.ids, c.Metrics) }

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

// Close stops the servers, then the client. Calling it again is a no-op.
func (c *LocalCluster) Close() {
	for _, srv := range c.servers {
		srv.Close()
	}
	c.client.Close()
}

// MigrateLive moves an object between sites through the live migration
// protocol (unlike Move, which bypasses the sites at setup time). Requires
// UseNaming.
func (c *LocalCluster) MigrateLive(id object.ID, to object.SiteID, timeout time.Duration) error {
	return c.client.Migrate(id, to, timeout)
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
	return c.exec(origin, wire.Submit{Body: body, Initial: initial}, 0, timeout)
}

// ExecBudget is Exec with a server-side time budget: the budget rides the
// Submit, shrinks on every cross-site hop, and an expired query comes back
// as a partial answer with Result.Reason set — no client-side abort needed.
// An admission-control refusal returns ErrRejected.
func (c *LocalCluster) ExecBudget(origin object.SiteID, body string, initial []object.ID, budget, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(origin, wire.Submit{Body: body, Initial: initial}, budget, timeout)
	return res, err
}

// ExecSeeded runs a query seeded from a previous query's distributed result
// set.
func (c *LocalCluster) ExecSeeded(origin object.SiteID, body string, from wire.QueryID, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(origin, wire.Submit{Body: body, InitialFromResultOf: from}, 0, timeout)
	return res, err
}

// ExecAs is Exec under a client identity: clientID rides the Submit
// (wire.Submit.ClientID), and the origin site admits and steps this query in
// round robin against other clients' work (site.Step).
func (c *LocalCluster) ExecAs(clientID uint64, origin object.SiteID, body string, initial []object.ID, timeout time.Duration) (*Result, error) {
	return c.ExecAsBudget(clientID, origin, body, initial, 0, timeout)
}

// ExecAsBudget is ExecAs with a server-side time budget (see ExecBudget).
func (c *LocalCluster) ExecAsBudget(clientID uint64, origin object.SiteID, body string, initial []object.ID, budget, timeout time.Duration) (*Result, error) {
	res, _, err := c.exec(origin, wire.Submit{Body: body, Initial: initial, ClientID: clientID}, budget, timeout)
	return res, err
}

func (c *LocalCluster) exec(origin object.SiteID, sub wire.Submit, budget, timeout time.Duration) (*Result, wire.QueryID, error) {
	cm, qid, err := c.client.Submit(origin, sub, budget, timeout)
	if cm == nil {
		return nil, qid, err
	}
	res, _ := fromComplete(cm) // Submit already turned cm.Err into err
	return res, qid, err
}

// Cancel cooperatively cancels a running query: the originator immediately
// answers with the partial results collected so far (Reason "cancelled by
// client") and fans wire.Cancel out to the peers, whose contexts return
// their termination credit and tear down. Unknown or already-finished
// queries are no-ops.
func (c *LocalCluster) Cancel(qid wire.QueryID) { _ = c.client.Cancel(qid) }

// Err returns the first internal error any site hit, or reports the
// messages the client had no handler for (nil normally).
func (c *LocalCluster) Err() error {
	if n := c.client.Metrics().Counter("hf_wire_unknown_msgs").Load(); n > 0 {
		return fmt.Errorf("cluster: the client received %d unexpected messages", n)
	}
	for _, id := range c.ids {
		if err := c.servers[id].Err(); err != nil {
			return err
		}
	}
	return nil
}
