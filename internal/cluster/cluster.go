// Package cluster wires HyperFile sites together into a running service.
//
// Two runners share the same site logic:
//
//   - SimCluster drives sites on a discrete-event loop with virtual time and
//     the calibrated cost model; it is deterministic and reproduces the
//     paper's timed experiments (section 5).
//
//   - LocalCluster wires N unmodified server.Servers — the runtime
//     hyperfiled deploys — over loopback transport.TCP, and queries them
//     through a server.Client, the client hfquery runs; it exercises real
//     concurrency over production's framing, acknowledgement,
//     retransmission and dedup.
package cluster

import (
	"errors"
	"fmt"

	"hyperfile/internal/chaos"
	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
)

// Options configures a cluster's sites. Tuning and Ablation pass whole into
// every site.Config; the fields below are the cluster's own.
type Options struct {
	site.Tuning
	site.Ablation
	// Cost is the virtual-time cost model (SimCluster only).
	Cost sim.CostModel
	// Chaos, when non-nil, subjects every frame LocalCluster's endpoints send
	// to the configured faults (drop, duplicate, delay, reorder, partition),
	// below the transport's reliability layer; nil leaves the links
	// fault-free. SimCluster ignores it.
	Chaos *chaos.Config
	// UseNaming replaces the static birth-site router with per-site naming
	// directories supporting object migration and forwarding.
	UseNaming bool
	// OracleMarkTable shares a zero-cost global mark table among all sites
	// (ablation of the paper's local-mark-table design decision).
	OracleMarkTable bool
}

// siteIDs returns 1..n.
func siteIDs(n int) []object.SiteID {
	ids := make([]object.SiteID, n)
	for i := range ids {
		ids[i] = object.SiteID(i + 1)
	}
	return ids
}

// siteConfigs builds every site's configuration, each with a fresh store
// and (under UseNaming) directory; under OracleMarkTable they share one
// global mark table.
func siteConfigs(ids []object.SiteID, opts Options) []site.Config {
	var marks *site.GlobalMarks
	if opts.OracleMarkTable {
		marks = site.NewGlobalMarks()
	}
	cfgs := make([]site.Config, len(ids))
	for i, id := range ids {
		var dir *naming.Directory
		var router site.Router = site.BirthRouter{}
		if opts.UseNaming {
			dir = naming.New(id)
			router = dir
		}
		peers := make([]object.SiteID, 0, len(ids)-1)
		for _, other := range ids {
			if other != id {
				peers = append(peers, other)
			}
		}
		cfgs[i] = site.Config{
			ID:          id,
			Store:       store.New(id),
			Router:      router,
			Directory:   dir,
			Peers:       peers,
			GlobalMarks: marks,
			Tuning:      opts.Tuning,
			Ablation:    opts.Ablation,
		}
	}
	return cfgs
}

// totalStats sums the sites' registry snapshots and reads Stats from the sum.
func totalStats(ids []object.SiteID, reg func(object.SiteID) *metrics.Registry) site.Stats {
	var sum metrics.Snapshot
	for _, id := range ids {
		sum = sum.Add(reg(id).Snapshot())
	}
	return site.StatsOf(sum)
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
	// Reason annotates a Partial answer with why the query ended early
	// ("deadline expired", "cancelled by client", "peer down"); empty for
	// complete answers.
	Reason string
}

// ErrRejected reports that admission control refused a query: the site was
// at MaxInflight with a full (or absent) admission queue, or the query's
// budget lapsed while it waited for a slot. The error wraps no partial
// answer — the query never ran. It is the network client's sentinel.
var ErrRejected = server.ErrRejected

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
		Reason:      c.Reason,
	}, nil
}
