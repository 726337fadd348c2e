package site

import (
	"testing"

	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// migHarness builds sites with naming directories wired for migration.
func migHarness(t *testing.T, n int) *harness {
	t.Helper()
	dirs := map[object.SiteID]*naming.Directory{}
	h := newHarness(t, n, func(c *Config) {
		d := naming.New(c.ID)
		dirs[c.ID] = d
		c.Router = d
		c.Directory = d
	})
	h.dirs = dirs
	return h
}

func TestMigrateWithoutDirectoryFails(t *testing.T) {
	h := newHarness(t, 1, nil)
	out, err := h.sites[1].HandleMessage(client, &wire.Migrate{Seq: 1, ID: object.ID{Birth: 1, Seq: 1}, To: 1, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("envelopes = %v", out)
	}
	m := out[0].Msg.(*wire.Migrated)
	if m.OK || m.Err == "" {
		t.Errorf("expected failure, got %+v", m)
	}
}

func TestMigrateForwardingHopLimit(t *testing.T) {
	h := migHarness(t, 2)
	// Object never exists anywhere; the directories keep pointing at the
	// birth site, which doesn't have it, so the request fails there rather
	// than bouncing forever.
	ghost := object.ID{Birth: 1, Seq: 999}
	out, err := h.sites[1].HandleMessage(client, &wire.Migrate{
		Seq: 1, ID: ghost, To: 2, Client: client, Hops: maxMigrateHops,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := out[0].Msg.(*wire.Migrated)
	if m.OK {
		t.Error("hop-exhausted migrate must fail")
	}
}

func TestMigrateDataRejectsGarbage(t *testing.T) {
	h := migHarness(t, 1)
	out, err := h.sites[1].HandleMessage(2, &wire.MigrateData{
		Seq: 3, Obj: []byte("{nope"), Client: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := out[0].Msg.(*wire.Migrated)
	if m.OK || m.Err == "" {
		t.Errorf("expected decode failure, got %+v", m)
	}
}

func TestMigrateEndToEndThroughSites(t *testing.T) {
	h := migHarness(t, 3)
	o := h.store(2).NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	if err := h.store(2).Put(o); err != nil {
		t.Fatal(err)
	}
	h.dirs[2].Register(o.ID)

	out, err := h.sites[2].HandleMessage(client, &wire.Migrate{
		Seq: 9, ID: o.ID, To: 3, Client: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(2, out)
	// The harness delivers synchronously, so by now: object at site 3,
	// authority updated at birth site 2, client told OK.
	if _, ok := h.store(3).Get(o.ID); !ok {
		t.Error("object not at destination")
	}
	if _, ok := h.store(2).Get(o.ID); ok {
		t.Error("object still at source")
	}
	owner, auth := h.dirs[2].Owner(o.ID)
	if owner != 3 || !auth {
		t.Errorf("authority = %v (auth %v)", owner, auth)
	}
	if h.sites[2].Stats().MigrationsOut != 1 || h.sites[3].Stats().MigrationsIn != 1 {
		t.Errorf("migration counters wrong: out=%d in=%d",
			h.sites[2].Stats().MigrationsOut, h.sites[3].Stats().MigrationsIn)
	}
}

// TestMigrateLateDoneCannotUndoNewerMove: the birth site moves an object
// away and a second move follows before the first destination's traffic has
// landed at the birth site. The birth site recorded the first move itself,
// so nothing from that destination may arrive late and overwrite the
// authority the second move set.
func TestMigrateLateDoneCannotUndoNewerMove(t *testing.T) {
	h := migHarness(t, 3)
	o := h.store(2).NewObject().Add("keyword", object.Keyword("k"), object.Value{})
	if err := h.store(2).Put(o); err != nil {
		t.Fatal(err)
	}
	h.dirs[2].Register(o.ID)

	data, err := h.sites[2].HandleMessage(client, &wire.Migrate{Seq: 1, ID: o.ID, To: 3, Client: client})
	if err != nil || len(data) != 1 {
		t.Fatalf("first move = %v, %v; want one MigrateData", data, err)
	}
	// Site 3 installs the object; what it sends is held in flight.
	late, err := h.sites[3].HandleMessage(2, data[0].Msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range late {
		if _, ok := env.Msg.(*wire.MigrateDone); ok {
			t.Errorf("destination told the birth site about a move the birth site made")
		}
	}
	// The second move runs to completion: birth site 2 forwards to site 3,
	// which ships the object to site 1, which updates the authority.
	out, err := h.sites[2].HandleMessage(client, &wire.Migrate{Seq: 2, ID: o.ID, To: 1, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(2, out)
	if owner, auth := h.dirs[2].Owner(o.ID); owner != 1 || !auth {
		t.Fatalf("authority after the second move = %v (auth %v), want s1", owner, auth)
	}
	h.deliver(3, late)
	if owner, auth := h.dirs[2].Owner(o.ID); owner != 1 || !auth {
		t.Errorf("authority after the first move's late traffic = %v (auth %v), want s1", owner, auth)
	}
}
