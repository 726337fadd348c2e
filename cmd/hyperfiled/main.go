// Command hyperfiled runs one HyperFile server site over TCP.
//
// Usage:
//
//	hyperfiled -site 1 -listen 127.0.0.1:7001 \
//	    -peers "2=127.0.0.1:7002,3=127.0.0.1:7003" \
//	    -data data/site-1.jsonl
//
// Clients (hfquery) register themselves dynamically by including their own
// listen address in the peer list passed to every server they talk to, or
// statically via -peers.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/dump"
	"hyperfile/internal/index"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
)

// config collects everything run needs; flags map onto it one to one.
type config struct {
	SiteID        uint
	Listen        string
	Peers         string
	Data          string
	Save          string
	ResultBatch   int
	DistThreshold int
	PlanCache     int
	Index         bool

	// Overload protection: bound live query contexts, queue (or reject)
	// Submits past the bound, and impose a default per-query time budget.
	MaxInflight    int
	AdmissionQueue int
	QueryDeadline  time.Duration

	// Parallel stepping and per-client fairness: Workers sizes the site's
	// stepping pool (0 or 1 = the paper's single stepper), FairQuantum
	// replaces FIFO scheduling with per-client deficit round robin.
	Workers     int
	FairQuantum int

	// MetricsAddr exposes /debug/hyperfile (metrics + query traces) over
	// HTTP when non-empty.
	MetricsAddr string

	// Failure detection: probe peers every Heartbeat, declare a peer down
	// after SuspectAfter of silence (0 disables the detector).
	Heartbeat    time.Duration
	SuspectAfter time.Duration

	// Fault injection below the reliability layer, for soak and recovery
	// testing. All zero = no faults.
	ChaosSeed     int64
	ChaosDrop     float64
	ChaosDup      float64
	ChaosDelay    float64
	ChaosMaxDelay time.Duration
	ChaosReorder  float64
}

func main() {
	var cfg config
	flags(&cfg, flag.CommandLine)
	flag.Parse()

	lg := slog.New(slog.NewTextHandler(os.Stderr, nil))
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, lg, stop, nil); err != nil {
		lg.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// flags defines hyperfiled's command line on fs, bound to cfg.
func flags(cfg *config, fs *flag.FlagSet) {
	fs.UintVar(&cfg.SiteID, "site", 1, "this server's site id")
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:0", "listen address")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated peer list: id=host:port,...")
	fs.StringVar(&cfg.Data, "data", "", "JSON-lines object file to load at startup")
	fs.StringVar(&cfg.Save, "save", "", "write a snapshot of the store here on shutdown")
	fs.IntVar(&cfg.ResultBatch, "result-batch", 0, "max result ids per message (0 = unbounded)")
	fs.IntVar(&cfg.DistThreshold, "dist-threshold", 0, "distributed-set retention threshold (0 = off)")
	fs.IntVar(&cfg.PlanCache, "plan-cache", 0, "plan-cache entries: repeated query bodies reuse their compiled physical plan (0 = off)")
	fs.BoolVar(&cfg.Index, "index", false, "maintain a keyword index and push exact-match selections down to it")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max live query contexts before admission control kicks in (0 = unbounded)")
	fs.IntVar(&cfg.AdmissionQueue, "admission-queue", 0, "Submits queued while at max-inflight before rejecting (0 = reject immediately)")
	fs.DurationVar(&cfg.QueryDeadline, "query-deadline", 0, "default per-query time budget; expired queries return annotated partials (0 = none)")
	fs.IntVar(&cfg.Workers, "workers", 0, "stepping-pool goroutines for this site (0 or 1 = single stepper)")
	fs.IntVar(&cfg.FairQuantum, "fair-quantum", 0, "per-client deficit-round-robin step credits per turn (0 = FIFO scheduling)")
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "serve /debug/hyperfile and /debug/pprof/ on this address (empty = off)")
	fs.DurationVar(&cfg.Heartbeat, "heartbeat", 0, "peer heartbeat interval (0 = no failure detector)")
	fs.DurationVar(&cfg.SuspectAfter, "suspect-after", 0, "silence before a peer is declared down (default 4x heartbeat)")
	fs.Int64Var(&cfg.ChaosSeed, "chaos-seed", 0, "fault-injection RNG seed (0 = from clock)")
	fs.Float64Var(&cfg.ChaosDrop, "chaos-drop", 0, "probability of dropping an outbound frame")
	fs.Float64Var(&cfg.ChaosDup, "chaos-dup", 0, "probability of duplicating an outbound frame")
	fs.Float64Var(&cfg.ChaosDelay, "chaos-delay", 0, "probability of delaying an outbound frame")
	fs.DurationVar(&cfg.ChaosMaxDelay, "chaos-max-delay", 10*time.Millisecond, "maximum injected delay")
	fs.Float64Var(&cfg.ChaosReorder, "chaos-reorder", 0, "probability of reordering an outbound frame")
}

// run starts the server and blocks until a signal arrives on stop. When
// ready is non-nil it receives the bound listen address once serving.
func run(cfg config, lg *slog.Logger, stop <-chan os.Signal, ready chan<- string) error {
	id := object.SiteID(cfg.SiteID)
	peers, err := parsePeers(cfg.Peers)
	if err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-chaos-drop", cfg.ChaosDrop},
		{"-chaos-dup", cfg.ChaosDup},
		{"-chaos-delay", cfg.ChaosDelay},
		{"-chaos-reorder", cfg.ChaosReorder},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("%s %v is not a probability (want 0..1)", r.name, r.v)
		}
	}
	if cfg.ChaosMaxDelay < 0 {
		return fmt.Errorf("-chaos-max-delay %v is negative", cfg.ChaosMaxDelay)
	}
	if cfg.SuspectAfter > 0 && cfg.Heartbeat <= 0 {
		return fmt.Errorf("-suspect-after needs -heartbeat (no probes, nothing to suspect)")
	}
	if cfg.MaxInflight < 0 {
		return fmt.Errorf("-max-inflight %d is negative", cfg.MaxInflight)
	}
	if cfg.AdmissionQueue < 0 {
		return fmt.Errorf("-admission-queue %d is negative", cfg.AdmissionQueue)
	}
	if cfg.AdmissionQueue > 0 && cfg.MaxInflight <= 0 {
		return fmt.Errorf("-admission-queue needs -max-inflight (nothing bounds admission, nothing queues)")
	}
	if cfg.QueryDeadline < 0 {
		return fmt.Errorf("-query-deadline %v is negative", cfg.QueryDeadline)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("-workers %d is negative", cfg.Workers)
	}
	if cfg.FairQuantum < 0 {
		return fmt.Errorf("-fair-quantum %d is negative", cfg.FairQuantum)
	}

	st := store.New(id)
	var ix *index.Keyword
	if cfg.Index {
		// Attach before loading so the backfill stays trivially empty and
		// every loaded object indexes through the store's Put hook.
		ix = index.NewKeyword()
		st.AttachIndex(ix)
	}
	if cfg.Data != "" {
		f, err := os.Open(cfg.Data)
		if err != nil {
			return err
		}
		objs, err := dump.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", cfg.Data, err)
		}
		for _, o := range objs {
			if err := st.Put(o); err != nil {
				return fmt.Errorf("loading %s: %w", cfg.Data, err)
			}
		}
		lg.Info("loaded dataset", "file", cfg.Data, "objects", len(objs))
	}

	opts := server.Options{
		HeartbeatInterval: cfg.Heartbeat,
		SuspectAfter:      cfg.SuspectAfter,
	}
	if cfg.ChaosDrop > 0 || cfg.ChaosDup > 0 || cfg.ChaosDelay > 0 || cfg.ChaosReorder > 0 {
		opts.Transport.Fault = chaos.NewInjector(chaos.Config{
			Seed:        cfg.ChaosSeed,
			DropRate:    cfg.ChaosDrop,
			DupRate:     cfg.ChaosDup,
			DelayRate:   cfg.ChaosDelay,
			MaxDelay:    cfg.ChaosMaxDelay,
			ReorderRate: cfg.ChaosReorder,
		})
		lg.Warn("chaos fault injection enabled",
			"drop", cfg.ChaosDrop, "dup", cfg.ChaosDup,
			"delay", cfg.ChaosDelay, "reorder", cfg.ChaosReorder,
			"seed", cfg.ChaosSeed)
	}

	peerIDs := make([]object.SiteID, 0, len(peers))
	for pid := range peers {
		peerIDs = append(peerIDs, pid)
	}
	srv, err := server.NewOpts(siteConfig(cfg, st, ix, peerIDs), cfg.Listen, lg, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	for pid, addr := range peers {
		srv.AddPeer(pid, addr)
	}
	if cfg.MetricsAddr != "" {
		if _, err := srv.ServeDebug(cfg.MetricsAddr); err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
	}
	lg.Info("hyperfiled serving", "site", id.String(), "addr", srv.Addr(), "peers", len(peers))
	if ready != nil {
		ready <- srv.Addr()
	}
	<-stop
	lg.Info("shutting down")
	if cfg.Save != "" {
		f, err := os.Create(cfg.Save)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := st.Snapshot(f); err != nil {
			f.Close()
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		lg.Info("snapshot written", "file", cfg.Save, "objects", st.Len())
	}
	return nil
}

// siteConfig builds the site's configuration from the flags. Everything the
// flags leave at their defaults stays at the site.Config zero value, which
// site.New fills in with the production protocol.
func siteConfig(cfg config, st *store.Store, ix *index.Keyword, peers []object.SiteID) site.Config {
	return site.Config{
		ID: object.SiteID(cfg.SiteID), Store: st, Peers: peers,
		ResultBatch: cfg.ResultBatch, DistributedSetThreshold: cfg.DistThreshold,
		Index: ix, PlanCacheSize: cfg.PlanCache,
		MaxInflight: cfg.MaxInflight, AdmissionQueue: cfg.AdmissionQueue,
		QueryDeadline: cfg.QueryDeadline,
		Workers:       cfg.Workers, FairQuantum: cfg.FairQuantum,
	}
}

// parsePeers parses "1=host:port,2=host:port".
func parsePeers(spec string) (map[object.SiteID]string, error) {
	out := make(map[object.SiteID]string)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		n, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", idStr, err)
		}
		out[object.SiteID(n)] = addr
	}
	return out, nil
}
