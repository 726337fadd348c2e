package server

import (
	"log/slog"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/wire"
)

// NewFabric starts a server for cfg on the in-memory fabric instead of TCP:
// it registers itself as cfg.ID's receiver on fabric, then starts the same
// loops NewOpts does. opts.Transport is ignored — the fabric has its own
// reliability layer and fault injector. Closing the server leaves the fabric
// open; its owner closes it after every endpoint has stopped.
func NewFabric(cfg site.Config, fabric *chaos.Network, logger *slog.Logger, opts Options) *Server {
	srv := newServer(cfg, logger, opts)
	// Fabric messages alias frames the garbage collector owns: no buffer to
	// release.
	fabric.Register(cfg.ID, func(from object.SiteID, m wire.Msg) { srv.post(from, m, nil) })
	srv.start(fabricLink{fabric: fabric, self: cfg.ID})
	return srv
}

// fabricLink adapts chaos.Network to the server's link. Every reliable send
// is delivered (or scheduled) at once, so Queue is the fabric's Send and
// Flush has nothing to do; endpoints are addressed by site id alone, so
// AddPeer has nothing to record.
type fabricLink struct {
	fabric *chaos.Network
	self   object.SiteID
}

func (l fabricLink) Self() object.SiteID           { return l.self }
func (l fabricLink) Addr() string                  { return "" }
func (l fabricLink) AddPeer(object.SiteID, string) {}
func (l fabricLink) Flush()                        {}
func (l fabricLink) Close() error                  { return nil }

func (l fabricLink) Queue(to object.SiteID, m wire.Msg) error {
	return l.fabric.Send(l.self, to, m)
}

func (l fabricLink) SendUnreliable(to object.SiteID, m wire.Msg) error {
	l.fabric.SendUnreliable(l.self, to, m)
	return nil
}
