package server

import (
	"errors"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// stuckSite starts server site 1 under tuning, whose one peer, site 2, is a
// bare endpoint that swallows everything sent to it, and a Client that
// knows both. A query that dereferences an object born at site 2 never
// finishes on its own; a Stats or Migrate sent to site 2 is never answered.
func stuckSite(t *testing.T, tuning site.Tuning) (*Server, *Client) {
	t.Helper()
	srv, err := New(site.Config{ID: 1, Store: store.New(1), Peers: []object.SiteID{2}, Tuning: tuning}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sink := bareEndpoint(t, srv, 2, func(object.SiteID, wire.Msg) {})
	client, err := NewClient(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	client.AddServer(1, srv.Addr())
	client.AddServer(2, sink.Addr())
	srv.AddPeer(100, client.Addr())
	return srv, client
}

// waitersLeft reports how many requests the client still holds a waiter for.
func waitersLeft(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// TestClientDropsEveryWaiter: whichever way a request ends — answered,
// rejected, or timed out with or without a recovered partial — the client
// keeps no waiter for it.
func TestClientDropsEveryWaiter(t *testing.T) {
	const q = `S (keyword, "ok", ?) -> T`
	remote := []object.ID{{Birth: 2, Seq: 1}}
	srv, client := stuckSite(t, site.Tuning{})
	o := srv.cfg.Store.NewObject().Add("keyword", object.Keyword("ok"), object.Value{})
	if err := srv.cfg.Store.Put(o); err != nil {
		t.Fatal(err)
	}
	drained := func(c *Client, step string) {
		t.Helper()
		if n := waitersLeft(c); n != 0 {
			t.Errorf("%s: %d waiters left, want 0", step, n)
		}
	}

	if cm, err := client.Exec(1, q, []object.ID{o.ID}, 5*time.Second); err != nil || len(cm.IDs) != 1 {
		t.Fatalf("answered Exec = %+v, %v; want one result", cm, err)
	}
	drained(client, "answered Exec")

	cm, err := client.Exec(1, q, remote, 200*time.Millisecond)
	if !errors.Is(err, ErrTimeout) || cm == nil || !cm.Partial {
		t.Fatalf("stuck Exec = %+v, %v; want a partial answer with ErrTimeout", cm, err)
	}
	drained(client, "timed-out Exec")

	if _, err := client.Stats(2, 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Stats of a silent site: err = %v, want ErrTimeout", err)
	}
	drained(client, "timed-out Stats")

	if err := client.Migrate(remote[0], 1, 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Migrate through a silent site: err = %v, want ErrTimeout", err)
	}
	drained(client, "timed-out Migrate")

	// A query from another endpoint holds the one slot of a MaxInflight 1
	// site, so the client's query is refused at once.
	full, fullClient := stuckSite(t, site.Tuning{MaxInflight: 1})
	holder := bareEndpoint(t, full, 101, func(object.SiteID, wire.Msg) {})
	sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: 1}, Client: 101, Body: q, Initial: remote}
	if err := holder.Send(1, sub); err != nil {
		t.Fatal(err)
	}
	if err := waitfor.Until(5*time.Second, func() bool { return full.Contexts() == 1 }); err != nil {
		t.Fatalf("the holding query never took its slot: %v", err)
	}
	if _, err := fullClient.Exec(1, q, nil, 5*time.Second); !errors.Is(err, ErrRejected) {
		t.Fatalf("Exec at a full site: err = %v, want ErrRejected", err)
	}
	drained(fullClient, "rejected Exec")
}

// TestClientCountsUnsolicitedMessages: a message kind the client never
// solicits is counted under hf_wire_unknown_msgs, not dropped invisibly; a
// reply with no waiter is not unknown.
func TestClientCountsUnsolicitedMessages(t *testing.T) {
	client, err := NewClient(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.onMessage(1, &wire.Deref{QID: wire.QueryID{Origin: 1, Seq: 1}})
	client.onMessage(1, &wire.Complete{QID: wire.QueryID{Origin: 1, Seq: 2}})
	if n := client.Metrics().Counter("hf_wire_unknown_msgs").Load(); n != 1 {
		t.Errorf("hf_wire_unknown_msgs = %d, want 1", n)
	}
}
