// Package cluster wires HyperFile sites together into a running service.
//
// Two runners share the same site logic:
//
//   - SimCluster drives sites on a discrete-event loop with virtual time and
//     the calibrated cost model; it is deterministic and reproduces the
//     paper's timed experiments (section 5).
//
//   - LocalCluster wires N unmodified server.Servers — the runtime
//     hyperfiled deploys — over loopback transport.TCP, plus a client
//     endpoint; it exercises real concurrency over production's framing,
//     acknowledgement, retransmission and dedup.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/engine"
	"hyperfile/internal/index"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

// Options configures a cluster's sites.
type Options struct {
	// Cost is the virtual-time cost model (SimCluster only).
	Cost sim.CostModel
	// Order is the working-set discipline for every site.
	Order engine.Order
	// ResultBatch caps ids per result message (0 = unbounded).
	ResultBatch int
	// DistributedSetThreshold enables the section-5 refinement (0 = off).
	DistributedSetThreshold int
	// DerefBatch caps the object ids per outgoing Deref message, with
	// sender-side duplicate suppression (site.Config.DerefBatch): 0 is the
	// production batch size, site.Unbatched the paper's
	// one-object-per-message protocol.
	DerefBatch int
	// TermAudit, when non-nil, wraps every site's termination detectors in
	// the conservation checker (test-only).
	TermAudit *termination.Audit
	// UseNaming replaces the static birth-site router with per-site naming
	// directories supporting object migration and forwarding.
	UseNaming bool
	// OracleMarkTable shares a zero-cost global mark table among all sites
	// (ablation of the paper's local-mark-table design decision).
	OracleMarkTable bool
	// Chaos, when non-nil, subjects every frame LocalCluster's endpoints send
	// to the configured faults (drop, duplicate, delay, reorder, partition),
	// below the transport's reliability layer; nil leaves the links
	// fault-free. SimCluster ignores it.
	Chaos *chaos.Config
	// HeartbeatInterval enables LocalCluster's failure detector: each site
	// probes its peers at this interval and declares a peer down after
	// SuspectAfter of silence (0 = no detector).
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence threshold before a peer is declared down
	// (default 4 × HeartbeatInterval).
	SuspectAfter time.Duration
	// PlanCache, when positive, gives every site a plan cache of this many
	// entries: repeated query bodies reuse their compiled physical plan
	// instead of being re-parsed per query context (0 = off).
	PlanCache int
	// Index gives every site a keyword index over its store (kept consistent
	// through every mutation) and enables the planner's index-aware selection
	// pushdown: exact-match selections probe the index instead of scanning
	// tuples.
	Index bool
	// MaxInflight bounds the unfinished query contexts per site; Submits
	// beyond the bound wait in an admission queue of AdmissionQueue entries
	// or fail with ErrRejected (0 = unbounded, the paper's behavior).
	MaxInflight int
	// AdmissionQueue bounds the per-site admission queue (0 = reject
	// immediately when at MaxInflight).
	AdmissionQueue int
	// QueryDeadline, when positive, is the default per-query time budget:
	// the remaining budget propagates on every cross-site hop and an expired
	// query returns an annotated partial answer instead of running on.
	// When this or MaxInflight is set, each LocalCluster server runs a
	// deadline sweeper that ticks every 50 ms, or every QueryDeadline/4
	// clamped to [1 ms, 100 ms] when a deadline is set. SimCluster's
	// virtual time ignores deadlines.
	QueryDeadline time.Duration
	// Workers is the per-site worker-pool size. In each LocalCluster server
	// the turn holder (the transport reader that delivered the mail, or the
	// server's loop) is the only message handler and also steps; Workers−1
	// extra goroutines only step, advancing different query contexts
	// concurrently (each context stays pinned to one worker per step,
	// preserving the paper's per-item execution order per query). SimCluster models the
	// same pool as parallel step slots in virtual time. Zero or one is the
	// paper's single-threaded stepping.
	Workers int
}

// siteIDs returns 1..n.
func siteIDs(n int) []object.SiteID {
	ids := make([]object.SiteID, n)
	for i := range ids {
		ids[i] = object.SiteID(i + 1)
	}
	return ids
}

// siteConfig builds one site's configuration, including its fresh store and
// (under UseNaming) directory. marks is the shared oracle mark table (nil
// unless OracleMarkTable).
func siteConfig(id object.SiteID, all []object.SiteID, opts Options, marks *site.GlobalMarks) site.Config {
	st := store.New(id)
	var dir *naming.Directory
	var router site.Router = site.BirthRouter{}
	if opts.UseNaming {
		dir = naming.New(id)
		router = dir
	}
	peers := make([]object.SiteID, 0, len(all)-1)
	for _, other := range all {
		if other != id {
			peers = append(peers, other)
		}
	}
	var ix *index.Keyword
	if opts.Index {
		ix = index.NewKeyword()
		st.AttachIndex(ix)
	}
	return site.Config{
		ID:                      id,
		Store:                   st,
		Router:                  router,
		Directory:               dir,
		Peers:                   peers,
		Order:                   opts.Order,
		ResultBatch:             opts.ResultBatch,
		DistributedSetThreshold: opts.DistributedSetThreshold,
		DerefBatch:              opts.DerefBatch,
		TermAudit:               opts.TermAudit,
		GlobalMarks:             marks,
		Index:                   ix,
		PlanCacheSize:           opts.PlanCache,
		MaxInflight:             opts.MaxInflight,
		AdmissionQueue:          opts.AdmissionQueue,
		QueryDeadline:           opts.QueryDeadline,
		Workers:                 opts.Workers,
	}
}

// Result is a finished query as seen by the client.
type Result struct {
	IDs         []object.ID
	Fetches     []wire.FetchVal
	Count       int
	Distributed bool
	Partial     bool
	// Unreachable lists sites the query skipped because they were declared
	// dead; non-empty implies Partial.
	Unreachable []object.SiteID
	// Spans is the assembled cross-site trace timeline, sorted by
	// (Hop, Site, Seq). It may cover only part of the query when Partial.
	Spans []wire.Span
	// Reason annotates a Partial answer with why the query ended early
	// ("deadline expired", "cancelled by client", "peer down"); empty for
	// complete answers.
	Reason string
}

// ErrRejected reports that admission control refused a query: the site was
// at MaxInflight with a full (or absent) admission queue, or the query's
// budget lapsed while it waited for a slot. The error wraps no partial
// answer — the query never ran.
var ErrRejected = errors.New("cluster: query rejected by admission control")

// moveObject migrates an object between stores and updates the naming
// directories: the birth site's authority records the new location, the
// destination presumes itself, and everyone else discovers the move through
// message forwarding (section 4). It is a setup-time operation: callers must
// not run it concurrently with query processing.
func moveObject(stores map[object.SiteID]*store.Store, dirs map[object.SiteID]*naming.Directory, id object.ID, to object.SiteID) error {
	if len(dirs) == 0 {
		return errors.New("cluster: object migration requires UseNaming")
	}
	birthDir, ok := dirs[id.Birth]
	if !ok {
		return fmt.Errorf("cluster: unknown birth site %v", id.Birth)
	}
	cur, _ := birthDir.Owner(id)
	src, ok := stores[cur]
	if !ok {
		return fmt.Errorf("cluster: unknown current site %v", cur)
	}
	dst, ok := stores[to]
	if !ok {
		return fmt.Errorf("cluster: unknown destination site %v", to)
	}
	full, err := src.Remove(id)
	if err != nil {
		return fmt.Errorf("cluster: move %v: %w", id, err)
	}
	if err := dst.PutForeign(full); err != nil {
		return fmt.Errorf("cluster: move %v: %w", id, err)
	}
	birthDir.RecordMove(id, to)
	dirs[to].Presume(id, to)
	return nil
}

// putObject stores an object at a site and registers it with the site's
// naming directory when naming is enabled.
func putObject(stores map[object.SiteID]*store.Store, dirs map[object.SiteID]*naming.Directory, at object.SiteID, o *object.Object) error {
	st, ok := stores[at]
	if !ok {
		return fmt.Errorf("cluster: unknown site %v", at)
	}
	if err := st.Put(o); err != nil {
		return err
	}
	if dir, ok := dirs[at]; ok {
		dir.Register(o.ID)
	}
	return nil
}

func fromComplete(c *wire.Complete) (*Result, error) {
	if c.Err != "" {
		return nil, fmt.Errorf("cluster: query failed: %s", c.Err)
	}
	return &Result{
		IDs:         c.IDs,
		Fetches:     c.Fetches,
		Count:       c.Count,
		Distributed: c.Distributed,
		Partial:     c.Partial,
		Unreachable: c.Unreachable,
		Spans:       c.Spans,
		Reason:      c.Reason,
	}, nil
}
