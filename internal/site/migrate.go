package site

import (
	"bytes"
	"fmt"

	"hyperfile/internal/dump"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// Live object migration (section 4): an object moves to a new site while
// its id — and therefore every pointer to it — stays unchanged. The birth
// site remains the naming authority; other sites discover the move through
// forwarding. The protocol:
//
//	client -> presumed owner:  Migrate            (forwarded while stale)
//	owner  -> new site:        MigrateData        (the full object)
//	new site -> birth site:    MigrateDone        (authority update, unless
//	                                               the birth site sent the object)
//	new site -> client:        Migrated           (outcome)
//
// In-flight dereferences racing with the move are safe: a deref reaching
// the old owner after removal is forwarded along the owner's updated
// presumption, and the engine treats a (transiently) unresolvable object as
// missing — partial results rather than a wedge.

// maxMigrateHops bounds Migrate forwarding through stale presumptions.
const maxMigrateHops = 4

// handleMigrate processes a move request at the (presumed) current owner.
func (s *Site) handleMigrate(m *wire.Migrate) ([]wire.Envelope, error) {
	fail := func(reason string) []wire.Envelope {
		return []wire.Envelope{{To: m.Client, Msg: &wire.Migrated{
			Seq: m.Seq, ID: m.ID, Err: reason,
		}}}
	}
	if s.cfg.Directory == nil {
		return fail("site has no naming directory; migration disabled"), nil
	}
	if _, ok := s.cfg.Store.Get(m.ID); !ok {
		owner, _ := s.cfg.Router.Owner(m.ID)
		if owner != s.cfg.ID && m.Hops < maxMigrateHops {
			fwd := *m
			fwd.Hops++
			return []wire.Envelope{{To: owner, Msg: &fwd}}, nil
		}
		return fail(fmt.Sprintf("object %v not found", m.ID)), nil
	}
	if m.To == s.cfg.ID {
		// Already here: the move is a no-op.
		return []wire.Envelope{{To: m.Client, Msg: &wire.Migrated{
			Seq: m.Seq, ID: m.ID, OK: true,
		}}}, nil
	}
	full, err := s.cfg.Store.Remove(m.ID)
	if err != nil {
		return fail(err.Error()), nil
	}
	var buf bytes.Buffer
	if err := dump.Write(&buf, []*object.Object{full}); err != nil {
		// Put it back; the object must not be lost.
		if putErr := s.cfg.Store.Put(full); putErr != nil {
			return nil, fmt.Errorf("%w: migration encode failed (%v) and restore failed: %v",
				ErrProtocol, err, putErr)
		}
		return fail("encoding failed: " + err.Error()), nil
	}
	// Record our best knowledge; the authority update comes from the
	// destination once the object has landed.
	s.cfg.Directory.RecordMove(m.ID, m.To)
	s.met.MigrationsOut.Inc()
	return []wire.Envelope{{To: m.To, Msg: &wire.MigrateData{
		Seq: m.Seq, Obj: buf.Bytes(), Client: m.Client, ClientAddr: m.ClientAddr,
	}}}, nil
}

// handleMigrateData installs a migrated object at its new site; from is the
// site that sent it.
func (s *Site) handleMigrateData(from object.SiteID, m *wire.MigrateData) ([]wire.Envelope, error) {
	fail := func(reason string) []wire.Envelope {
		return []wire.Envelope{{To: m.Client, Msg: &wire.Migrated{Seq: m.Seq, Err: reason}}}
	}
	objs, err := dump.Read(bytes.NewReader(m.Obj))
	if err != nil || len(objs) != 1 {
		return fail("undecodable migration payload"), nil
	}
	o := objs[0]
	if err := s.cfg.Store.PutForeign(o); err != nil {
		return fail(err.Error()), nil
	}
	if s.cfg.Directory != nil {
		if o.ID.Birth == s.cfg.ID {
			s.cfg.Directory.Register(o.ID) // moved back home: authority = self
		} else {
			s.cfg.Directory.Presume(o.ID, s.cfg.ID)
		}
	}
	s.met.MigrationsIn.Inc()
	out := []wire.Envelope{}
	// A birth site that sent the object recorded the move as it did so.
	// Telling it again is not just redundant: updates from different sites
	// are not ordered, so a late MigrateDone could overwrite a newer move.
	if o.ID.Birth != s.cfg.ID && o.ID.Birth != from {
		out = append(out, wire.Envelope{To: o.ID.Birth, Msg: &wire.MigrateDone{
			ID: o.ID, NewSite: s.cfg.ID,
		}})
	}
	out = append(out, wire.Envelope{To: m.Client, Msg: &wire.Migrated{
		Seq: m.Seq, ID: o.ID, OK: true,
	}})
	return out, nil
}

// handleMigrateDone updates the birth site's authority.
func (s *Site) handleMigrateDone(m *wire.MigrateDone) {
	if s.cfg.Directory != nil {
		s.cfg.Directory.RecordMove(m.ID, m.NewSite)
	}
}
