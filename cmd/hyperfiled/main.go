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
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
)

// config collects everything run needs; flags map onto it one to one.
type config struct {
	SiteID uint
	Listen string
	Peers  string
	Data   string
	Save   string

	// MetricsAddr exposes /debug/hyperfile (metrics + query traces) over
	// HTTP when non-empty.
	MetricsAddr string

	// Tuning is the site's knobs; Tuning.Flags declares their flags.
	site.Tuning

	// Chaos injects faults below the reliability layer, for soak and
	// recovery testing. All rates zero = no faults.
	Chaos chaos.Config
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
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "serve /debug/hyperfile and /debug/pprof/ on this address (empty = off)")
	cfg.Tuning.Flags(fs)
	fs.Int64Var(&cfg.Chaos.Seed, "chaos-seed", 0, "fault-injection RNG seed (0 = from clock)")
	fs.Float64Var(&cfg.Chaos.DropRate, "chaos-drop", 0, "probability of dropping an outbound frame")
	fs.Float64Var(&cfg.Chaos.DupRate, "chaos-dup", 0, "probability of duplicating an outbound frame")
	fs.Float64Var(&cfg.Chaos.DelayRate, "chaos-delay", 0, "probability of delaying an outbound frame")
	fs.DurationVar(&cfg.Chaos.MaxDelay, "chaos-max-delay", 10*time.Millisecond, "maximum injected delay")
	fs.Float64Var(&cfg.Chaos.ReorderRate, "chaos-reorder", 0, "probability of reordering an outbound frame")
}

// run starts the server and blocks until a signal arrives on stop. When
// ready is non-nil it receives the bound listen address once serving.
func run(cfg config, lg *slog.Logger, stop <-chan os.Signal, ready chan<- string) error {
	id := object.SiteID(cfg.SiteID)
	peers, err := parsePeers(cfg.Peers)
	if err != nil {
		return err
	}
	c := cfg.Chaos
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-chaos-drop", c.DropRate},
		{"-chaos-dup", c.DupRate},
		{"-chaos-delay", c.DelayRate},
		{"-chaos-reorder", c.ReorderRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("%s %v is not a probability (want 0..1)", r.name, r.v)
		}
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("-chaos-max-delay %v is negative", c.MaxDelay)
	}
	if err := cfg.Tuning.Validate(); err != nil {
		return err
	}

	st := store.New(id)
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

	var opts server.Options
	if c.DropRate > 0 || c.DupRate > 0 || c.DelayRate > 0 || c.ReorderRate > 0 {
		opts.Transport.Fault = chaos.NewInjector(c)
		lg.Warn("chaos fault injection enabled",
			"drop", c.DropRate, "dup", c.DupRate,
			"delay", c.DelayRate, "reorder", c.ReorderRate,
			"seed", c.Seed)
	}

	peerIDs := make([]object.SiteID, 0, len(peers))
	for pid := range peers {
		peerIDs = append(peerIDs, pid)
	}
	srv, err := server.NewOpts(siteConfig(cfg, st, peerIDs), cfg.Listen, lg, opts)
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
func siteConfig(cfg config, st *store.Store, peers []object.SiteID) site.Config {
	return site.Config{ID: object.SiteID(cfg.SiteID), Store: st, Peers: peers, Tuning: cfg.Tuning}
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
