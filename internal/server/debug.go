package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"hyperfile/internal/metrics"
	"hyperfile/internal/site"
)

// DebugSnapshot is the JSON document served at /debug/hyperfile: one site's
// metrics registry plus its ring of completed query traces. The schema is
// documented in docs/OBSERVABILITY.md and pinned by a golden test.
type DebugSnapshot struct {
	// Site is the serving site's id.
	Site string `json:"site"`
	// Metrics is a point-in-time snapshot of every registered instrument.
	Metrics metrics.Snapshot `json:"metrics"`
	// Traces holds this site's own spans of the most recent queries it
	// finished, as originator or participant, oldest first;
	// site.MergeTraces joins several sites' into cross-site timelines.
	Traces []site.TraceEntry `json:"traces,omitempty"`
}

// DebugSnapshot captures the server's current metrics and traces.
func (srv *Server) DebugSnapshot() DebugSnapshot {
	return DebugSnapshot{
		Site:    srv.tr.Self().String(),
		Metrics: srv.reg.Snapshot(),
		Traces:  srv.traces.Entries(),
	}
}

// DebugHandler serves the debug snapshot as JSON. Mount it wherever the
// operator wants; ServeDebug is the batteries-included variant.
func (srv *Server) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(srv.DebugSnapshot()); err != nil {
			srv.lg.Warn("debug snapshot encode failed", "err", err)
		}
	})
}

// ServeDebug starts an HTTP listener on addr exposing /debug/hyperfile and
// the runtime profiles under /debug/pprof/ (the listener is opt-in, so the
// profiler needs no switch of its own), and returns the bound address. The
// listener closes when the server does.
func (srv *Server) ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/hyperfile", srv.DebugHandler())
	// Index also serves the named profiles (heap, goroutine, mutex, ...).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	srv.wg.Add(2)
	go func() {
		defer srv.wg.Done()
		_ = hs.Serve(ln)
	}()
	go func() {
		defer srv.wg.Done()
		<-srv.quit
		_ = hs.Close()
	}()
	srv.lg.Info("debug endpoint listening", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}
