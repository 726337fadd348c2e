package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/naming"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/transport"
	"hyperfile/internal/waitfor"
	"hyperfile/internal/wire"
)

// testDeployment spins n servers plus a client on loopback, fully meshed.
func testDeployment(t *testing.T, n int) ([]*Server, []*store.Store, *Client) {
	return testDeploymentOpts(t, n, Options{})
}

// testDeploymentOpts is testDeployment with explicit server options.
func testDeploymentOpts(t *testing.T, n int, opts Options) ([]*Server, []*store.Store, *Client) {
	t.Helper()
	return testDeploymentCfg(t, n, opts, nil)
}

// testDeploymentCfg additionally lets the caller tweak each site's Config.
func testDeploymentCfg(t *testing.T, n int, opts Options, tweak func(*site.Config)) ([]*Server, []*store.Store, *Client) {
	t.Helper()
	servers := make([]*Server, n)
	stores := make([]*store.Store, n)
	ids := make([]object.SiteID, n)
	for i := range ids {
		ids[i] = object.SiteID(i + 1)
	}
	for i, id := range ids {
		peers := make([]object.SiteID, 0, n-1)
		for _, o := range ids {
			if o != id {
				peers = append(peers, o)
			}
		}
		stores[i] = store.New(id)
		cfg := site.Config{ID: id, Store: stores[i], Peers: peers}
		if tweak != nil {
			tweak(&cfg)
		}
		srv, err := NewOpts(cfg, "127.0.0.1:0", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	for _, a := range servers {
		for _, b := range servers {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	client, err := NewClient(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for _, s := range servers {
		client.AddServer(s.ID(), s.Addr())
		s.AddPeer(client.ID(), client.Addr())
	}
	return servers, stores, client
}

// loadRing stores a cross-site ring of size objs*count.
func loadServerRing(t *testing.T, stores []*store.Store, n int) []object.ID {
	t.Helper()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = stores[i%len(stores)].NewObject()
	}
	ids := make([]object.ID, n)
	for i, o := range objs {
		ids[i] = o.ID
		key := "cold"
		if i%2 == 0 {
			key = "hot"
		}
		o.Add("keyword", object.Keyword(key), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%n].ID))
		if err := stores[i%len(stores)].Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

const tcpClosure = `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) -> T`

func TestTCPQueryEndToEnd(t *testing.T) {
	_, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 30)
	cm, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 15 || cm.Count != 15 {
		t.Errorf("results = %d ids count %d, want 15", len(cm.IDs), cm.Count)
	}
}

// TestTCPBatchedDerefEndToEnd is TestTCPQueryEndToEnd with deref batching
// on, so Deref bodies — the borrowed-decode hot path — cross the real TCP
// transport. The servers read frames into pooled ref-counted buffers, decode
// them in place, carry the borrowed messages through the async mailbox, and
// release after dispatch; under -race the released bytes are poisoned, so
// any site logic still holding a borrowed string corrupts loudly here. Three
// rounds from rotating origins make released buffers recycle between queries
// (a stale borrow would read the next query's bytes), and the fetch query
// sends borrowed field values into the always-copied FetchVal lists.
func TestTCPBatchedDerefEndToEnd(t *testing.T) {
	_, stores, client := testDeploymentCfg(t, 3, Options{},
		func(cfg *site.Config) { cfg.DerefBatch = 4 })
	ids := loadServerRing(t, stores, 30)
	addTitles(t, stores, ids)
	for i := 0; i < 3; i++ {
		cm, err := client.Exec(object.SiteID(i%3+1), tcpClosure, ids[:1], 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if len(cm.IDs) != 15 || cm.Count != 15 {
			t.Errorf("round %d: results = %d ids count %d, want 15", i, len(cm.IDs), cm.Count)
		}
	}
	fm, err := client.Exec(1, tcpFetchClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatalf("fetch query: %v", err)
	}
	if len(fm.Fetches) != 15 {
		t.Fatalf("fetch query returned %d values, want 15", len(fm.Fetches))
	}
	for _, f := range fm.Fetches {
		if f.Var != "title" || f.Val.Str != "t" {
			t.Fatalf("fetched %+v, want title=t", f)
		}
	}
}

// tcpFetchClosure is tcpClosure also fetching each hot object's title.
const tcpFetchClosure = `S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "hot", ?) (String, "Title", ->title) -> T`

// addTitles gives every ring object a (String, "Title", "t") tuple for
// tcpFetchClosure to ship back.
func addTitles(t *testing.T, stores []*store.Store, ids []object.ID) {
	t.Helper()
	for i, id := range ids {
		st := stores[i%len(stores)]
		o, ok := st.Get(id)
		if !ok {
			t.Fatalf("object %v missing from its store", id)
		}
		o.Add("String", object.String("Title"), object.String("t"))
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPClientMayRetainComplete: who owns the bytes selects the decode. The
// client registers a plain Handler and keeps every Complete it is handed, so
// the transport must give it copies — never fields borrowed from a pooled
// read buffer. A Complete carrying a Reason, an Unreachable list and
// Fetches is kept across 50 further queries, whose frames recycle (and, under
// -race, poison) the client's read buffers; every field must read back
// unchanged.
func TestTCPClientMayRetainComplete(t *testing.T) {
	servers, stores, client := testDeploymentCfg(t, 3, Options{
		Transport: transport.Options{
			RetransmitBase: 5 * time.Millisecond,
			RetransmitMax:  50 * time.Millisecond,
			MaxAttempts:    10,
		},
	}, func(c *site.Config) {
		c.HeartbeatInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	})
	ids := loadServerRing(t, stores, 12)
	addTitles(t, stores, ids)
	servers[2].Close() // site 3 crashes: the answer is partial, with a reason
	if err := waitfor.Until(5*time.Second, func() bool {
		return servers[0].PeerIsDown(3) && servers[1].PeerIsDown(3)
	}); err != nil {
		t.Fatalf("survivors never suspected the dead site: %v", err)
	}
	kept, err := client.Exec(1, tcpFetchClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Absolute values first: a borrowed field is poisoned the moment the
	// transport recycles the buffer, which is before the handler ever ran.
	check := func(stage string) {
		t.Helper()
		if kept.Reason != "peer down" || len(kept.Unreachable) != 1 || kept.Unreachable[0] != 3 {
			t.Fatalf("%s: Reason %q Unreachable %v, want \"peer down\" [3]", stage, kept.Reason, kept.Unreachable)
		}
		if len(kept.Fetches) == 0 {
			t.Fatalf("%s: workload is broken, no fetches: %+v", stage, kept)
		}
		for _, f := range kept.Fetches {
			if f.Var != "title" || f.Val.Str != "t" {
				t.Fatalf("%s: fetched %+v, want title=t", stage, f)
			}
		}
	}
	check("on arrival")
	render := func() string {
		return fmt.Sprintf("%v %+v", kept.IDs, kept.Fetches)
	}
	want := render()
	for i := 0; i < 50; i++ {
		q := tcpFetchClosure
		if i%2 == 1 {
			q = `S (keyword, "hot", ?) -> T`
		}
		if _, err := client.Exec(object.SiteID(i%2+1), q, ids[:1], 10*time.Second); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	check("after 50 more queries")
	if got := render(); got != want {
		t.Fatalf("retained Complete changed under the client:\n got %s\nwant %s", got, want)
	}
}

// TestTakeZeroesVacatedMailboxSlot: the mailbox advances by reslicing, so the
// consumed entry must be cleared or the backing array keeps pinning the
// message and its read buffer until the next reallocation.
func TestTakeZeroesVacatedMailboxSlot(t *testing.T) {
	srv := &Server{}
	srv.mailbox = []mail{
		{from: 2, msg: &wire.Heartbeat{Seq: 1}},
		{from: 3, msg: &wire.Heartbeat{Seq: 2}},
	}
	backing := srv.mailbox
	if m, ok := srv.take(); !ok || m.from != 2 {
		t.Fatalf("take = %+v, %v", m, ok)
	}
	if backing[0] != (mail{}) {
		t.Fatalf("vacated slot still holds %+v", backing[0])
	}
	if backing[1].from != 3 || len(srv.mailbox) != 1 {
		t.Fatalf("take disturbed the queued entry: %+v", srv.mailbox)
	}
}

func TestTCPFetchValues(t *testing.T) {
	_, stores, client := testDeployment(t, 2)
	a := stores[0].NewObject().Add("String", object.String("Title"), object.String("A"))
	b := stores[1].NewObject().Add("String", object.String("Title"), object.String("B"))
	a.Add("Pointer", object.String("Reference"), object.Pointer(b.ID))
	for i, o := range []*object.Object{a, b} {
		if err := stores[i].Put(o); err != nil {
			t.Fatal(err)
		}
	}
	cm, err := client.Exec(1,
		`S (Pointer, "Reference", ?X) ^^X (String, "Title", ->title) -> T`,
		[]object.ID{a.ID}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Fetches) != 2 {
		t.Errorf("fetches = %v", cm.Fetches)
	}
}

func TestTCPQueryError(t *testing.T) {
	_, _, client := testDeployment(t, 1)
	if _, err := client.Exec(1, "garbage", nil, 5*time.Second); err == nil {
		t.Error("expected parse error")
	}
}

func TestTCPMultipleSequentialQueries(t *testing.T) {
	_, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 18)
	for i := 0; i < 5; i++ {
		cm, err := client.Exec(object.SiteID(i%3+1), tcpClosure, ids[:1], 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(cm.IDs) != 9 {
			t.Errorf("query %d: results = %d", i, len(cm.IDs))
		}
	}
}

// TestTCPClientRestartSameSiteID restarts the client process between two
// queries through the same origin: a fresh Client with the same site id but
// a new address and new query ids. Regression test — sites tombstone
// finished query ids, so if a restarted client reused an id, its query
// would be mistaken for a straggler of the old one and hang.
func TestTCPClientRestartSameSiteID(t *testing.T) {
	servers, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 18)
	cm, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 9 {
		t.Fatalf("first client: results = %d, want 9", len(cm.IDs))
	}
	client.Close()
	// Wait until the first query's Finish messages have settled: every
	// participant has dropped its context and laid a tombstone — the window
	// where a reused query id would be mistaken for a straggler.
	if err := waitfor.Until(5*time.Second, func() bool {
		for _, s := range servers {
			if s.Metrics().Snapshot().Gauges["site_live_contexts"] != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("query contexts never drained: %v", err)
	}

	second, err := NewClient(client.ID(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	for _, s := range servers {
		second.AddServer(s.ID(), s.Addr())
	}
	cm, err = second.Exec(1, tcpClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatalf("restarted client: %v", err)
	}
	if len(cm.IDs) != 9 {
		t.Errorf("restarted client: results = %d, want 9", len(cm.IDs))
	}
}

// TestTCPClientLinkDialedOncePerAddress: a server re-learns the client's
// address from every Submit, and that must not cost a connection per query.
// 100 queries from one client leave exactly one dial on the server→client
// link (a single-server deployment has no other outbound link); a client
// restarted on a new port is re-dialed, once.
func TestTCPClientLinkDialedOncePerAddress(t *testing.T) {
	servers, stores, client := testDeployment(t, 1)
	ids := loadServerRing(t, stores, 6)
	dials := func() uint64 {
		s := servers[0].Metrics().Snapshot()
		return s.Counters["transport_connects"] + s.Counters["transport_reconnects"]
	}
	run := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			cm, err := c.Exec(1, tcpClosure, ids[:1], 10*time.Second)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if len(cm.IDs) != 3 {
				t.Fatalf("query %d: results = %d, want 3", i, len(cm.IDs))
			}
		}
	}
	run(client, 100)
	if got := dials(); got != 1 {
		t.Errorf("100 queries dialed the client %d times, want 1", got)
	}

	client.Close()
	second, err := NewClient(client.ID(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.AddServer(1, servers[0].Addr())
	run(second, 10)
	if got := dials(); got != 2 {
		t.Errorf("dials after the client moved to a new port = %d, want 2", got)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	_, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 18)
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		origin := object.SiteID(i%3 + 1)
		go func() {
			cm, err := client.Exec(origin, tcpClosure, ids[:1], 10*time.Second)
			if err == nil && len(cm.IDs) != 9 {
				err = errors.New("wrong result count")
			}
			errs <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestTCPDownServerPartialResults(t *testing.T) {
	servers, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 12)
	servers[2].Close() // site 3 goes down
	cm, err := client.Exec(1, tcpClosure, ids[:1], 2*time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if cm == nil || !cm.Partial {
		t.Fatalf("expected partial answer, got %+v", cm)
	}
	for _, id := range cm.IDs {
		if id.Birth == 3 {
			t.Errorf("result %v from downed site", id)
		}
	}
	// The surviving sites keep answering (initial set avoids the dead site).
	cm2, err := client.Exec(2, `S (keyword, "hot", ?) -> T`, ids[0:2], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm2.IDs) != 1 {
		t.Errorf("follow-up results = %v", cm2.IDs)
	}
}

// TestTCPPeerFailureDetectedPartialAnswer kills a server with the failure
// detector enabled: the survivors declare it dead, skip it for new work, and
// the query completes normally — no client timeout — with a partial answer
// naming the unreachable site.
func TestTCPPeerFailureDetectedPartialAnswer(t *testing.T) {
	servers, stores, client := testDeploymentCfg(t, 3, Options{
		Transport: transport.Options{
			RetransmitBase: 5 * time.Millisecond,
			RetransmitMax:  50 * time.Millisecond,
			MaxAttempts:    10,
		},
	}, func(c *site.Config) {
		c.HeartbeatInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	})
	ids := loadServerRing(t, stores, 12)
	servers[2].Close() // site 3 crashes
	// Wait for the survivors' detectors to declare site 3 dead.
	if err := waitfor.Until(5*time.Second, func() bool {
		return servers[0].PeerIsDown(3) && servers[1].PeerIsDown(3)
	}); err != nil {
		t.Fatalf("survivors never suspected the dead site: %v", err)
	}
	cm, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !cm.Partial {
		t.Fatalf("expected a partial answer, got %+v", cm)
	}
	if len(cm.Unreachable) != 1 || cm.Unreachable[0] != 3 {
		t.Errorf("Unreachable = %v, want [3]", cm.Unreachable)
	}
	for _, id := range cm.IDs {
		if id.Birth == 3 {
			t.Errorf("result %v from dead site", id)
		}
	}
}

func TestServerStats(t *testing.T) {
	servers, stores, client := testDeployment(t, 2)
	ids := loadServerRing(t, stores, 8)
	if _, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The ring alternates sites, so site 1 must have sent remote derefs and
	// completed the query; site 2 must have processed objects.
	st1 := servers[0].Stats()
	st2 := servers[1].Stats()
	if st1.DerefsSent == 0 || st1.Completed != 1 {
		t.Errorf("site 1 stats: %+v", st1)
	}
	if st2.Engine.Processed != 4 {
		t.Errorf("site 2 processed %d, want 4", st2.Engine.Processed)
	}
	if bad := servers[0].reg.Unregistered(servers[0]); len(bad) > 0 {
		t.Errorf("server instruments not from the registry: %v", bad)
	}
}

func TestClientStats(t *testing.T) {
	servers, stores, client := testDeployment(t, 2)
	ids := loadServerRing(t, stores, 6)
	if _, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Stats(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Site != 1 || resp.Objects != 3 {
		t.Errorf("stats = %+v", resp)
	}
	counters := map[string]uint64{}
	for i, c := range resp.Counters {
		if i > 0 && resp.Counters[i-1].Name >= c.Name {
			t.Errorf("counter %q follows %q: not sorted by name", c.Name, resp.Counters[i-1].Name)
		}
		counters[c.Name] = c.Value
	}
	if counters["site_completed"] != 1 || counters["site_objects_processed"] == 0 {
		t.Errorf("counters = %v", counters)
	}
	// The registry's counters under their own names, and the store's.
	for _, name := range append(servers[0].Metrics().CounterNames(), "disk_reads") {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %q missing from %v", name, counters)
		}
	}
	// Stats from a dead site time out.
	if _, err := client.Stats(9, 200*time.Millisecond); err == nil {
		t.Error("expected stats error for unknown site")
	}
}

func TestServerSurvivesGarbageFrames(t *testing.T) {
	servers, stores, client := testDeployment(t, 1)
	o := stores[0].NewObject().Add("keyword", object.Keyword("ok"), object.Value{})
	if err := stores[0].Put(o); err != nil {
		t.Fatal(err)
	}
	// Raw garbage on the wire: the server drops the connection and keeps
	// serving everyone else.
	conn, err := net.Dial("tcp", servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0, 0, 0, 4, 0, 0, 0, 9, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A protocol-legal but misdirected message (Complete at a server) is
	// rejected by the site and logged; the server keeps serving too.
	cm, err := client.Exec(1, `S (keyword, "ok", ?) -> T`, []object.ID{o.ID}, 5*time.Second)
	if err != nil || len(cm.IDs) != 1 {
		t.Fatalf("exec after garbage: %v %v", cm, err)
	}
}

// TestContextsCleanedAcrossManyQueries: contexts must not leak. The last
// query's participant drops its context on the Finish that follows the
// Complete, so each site's Stats is polled until it reports none.
func TestContextsCleanedAcrossManyQueries(t *testing.T) {
	servers, stores, client := testDeployment(t, 2)
	ids := loadServerRing(t, stores, 8)
	for i := 0; i < 10; i++ {
		if _, err := client.Exec(object.SiteID(i%2+1), tcpClosure, ids[:1], 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range servers {
		var resp *wire.StatsResp
		if err := waitfor.Until(5*time.Second, func() bool {
			var err error
			if resp, err = client.Stats(srv.ID(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			return resp.Contexts == 0
		}); err != nil {
			t.Errorf("site %v leaks %d contexts: %v", resp.Site, resp.Contexts, err)
		}
	}
}

// TestContextsDrainAfterQuery: Contexts reads every site's live contexts on
// its own goroutine, and all of them are gone once a query has finished.
func TestContextsDrainAfterQuery(t *testing.T) {
	servers, stores, client := testDeployment(t, 3)
	ids := loadServerRing(t, stores, 12)
	if _, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Participants drop their contexts on the Finish that follows the
	// Complete, so poll rather than read once.
	if err := waitfor.Until(5*time.Second, func() bool {
		for _, s := range servers {
			if s.Contexts() != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("contexts never drained: %v", err)
	}
}

// bareEndpoint starts a plain transport endpoint as site id, wired to srv in
// both directions, whose every inbound message goes to h.
func bareEndpoint(t *testing.T, srv *Server, id object.SiteID, h transport.Handler) *transport.TCP {
	t.Helper()
	ep, err := transport.ListenTCP(id, "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	ep.AddPeer(srv.ID(), srv.Addr())
	srv.AddPeer(id, ep.Addr())
	return ep
}

// TestContextsCountsWaitingQuery: a query waiting on a peer holds its
// originator's context, and Contexts counts it. Site 2 is a bare transport
// endpoint that swallows the Deref, so the query never finishes.
func TestContextsCountsWaitingQuery(t *testing.T) {
	srv, err := NewOpts(site.Config{ID: 1, Store: store.New(1), Peers: []object.SiteID{2}}, "127.0.0.1:0", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	derefs := make(chan wire.Msg, 4)
	bareEndpoint(t, srv, 2, func(_ object.SiteID, m wire.Msg) { derefs <- m })
	client := bareEndpoint(t, srv, 100, func(object.SiteID, wire.Msg) {})
	sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: 1}, Client: 100,
		Body: `S (keyword, "ok", ?) -> T`, Initial: []object.ID{{Birth: 2, Seq: 1}}}
	if err := client.Send(1, sub); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-derefs:
		if _, ok := m.(*wire.Deref); !ok {
			t.Fatalf("site 2 got %+v, want a Deref", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("origin never dereferenced the remote initial object")
	}
	if n := srv.Contexts(); n != 1 {
		t.Fatalf("Contexts = %d while the query waits on site 2, want 1", n)
	}
}

// TestErrReportsRejectedMessage: a message the site rejects is kept for Err,
// and the server goes on serving. A bare transport endpoint addresses the
// server a message no well-behaved peer would send.
func TestErrReportsRejectedMessage(t *testing.T) {
	st := store.New(1)
	srv, err := NewOpts(site.Config{ID: 1, Store: st}, "127.0.0.1:0", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	replies := make(chan wire.Msg, 4)
	client := bareEndpoint(t, srv, 100, func(_ object.SiteID, m wire.Msg) { replies <- m })
	if err := srv.Err(); err != nil {
		t.Fatalf("fresh server reports %v", err)
	}
	if err := client.Send(1, &wire.Complete{QID: wire.QueryID{Origin: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := waitfor.Until(5*time.Second, func() bool { return srv.Err() != nil }); err != nil {
		t.Fatalf("rejected message never surfaced: %v", err)
	}
	if err := srv.Err(); !errors.Is(err, site.ErrProtocol) {
		t.Fatalf("Err = %v, want a protocol error", err)
	}
	o := st.NewObject().Add("keyword", object.Keyword("ok"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: 2}, Client: 100,
		Body: `S (keyword, "ok", ?) -> T`, Initial: []object.ID{o.ID}}
	if err := client.Send(1, sub); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-replies:
		if cm, ok := m.(*wire.Complete); !ok || len(cm.IDs) != 1 {
			t.Fatalf("reply = %+v, want a Complete with one id", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server stopped serving after the rejected message")
	}
}

// TestOutOfRangeDerefStartKeepsServing: any connection can send a Deref
// whose Start lies outside its query's filter list. The site refuses each
// one, no context stays behind, and the server answers the next query.
func TestOutOfRangeDerefStartKeepsServing(t *testing.T) {
	st := store.New(1)
	srv, err := NewOpts(site.Config{ID: 1, Store: st, Peers: []object.SiteID{2}}, "127.0.0.1:0", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	o := st.NewObject().Add("keyword", object.Keyword("ok"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	const body = `S (keyword, "ok", ?) -> T` // one filter
	peer := bareEndpoint(t, srv, 2, func(object.SiteID, wire.Msg) {})
	replies := make(chan wire.Msg, 4)
	client := bareEndpoint(t, srv, 100, func(_ object.SiteID, m wire.Msg) { replies <- m })
	for i, start := range []int{-1, 2, 1 << 40} {
		if err := peer.Send(1, &wire.Deref{QID: wire.QueryID{Origin: 2, Seq: uint64(i + 1)}, Origin: 2,
			Body: body, ObjIDs: []object.ID{o.ID}, Start: start, Token: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := waitfor.Until(5*time.Second, func() bool { return srv.Err() != nil }); err != nil {
		t.Fatalf("out-of-range start never refused: %v", err)
	}
	if err := srv.Err(); !errors.Is(err, site.ErrProtocol) {
		t.Fatalf("Err = %v, want a protocol error", err)
	}
	sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: 1}, Client: 100, Body: body, Initial: []object.ID{o.ID}}
	if err := client.Send(1, sub); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-replies:
		if cm, ok := m.(*wire.Complete); !ok || len(cm.IDs) != 1 {
			t.Fatalf("reply = %+v, want a Complete with one id", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server stopped serving after the out-of-range Derefs")
	}
	if err := waitfor.Until(5*time.Second, func() bool { return srv.Contexts() == 0 }); err != nil {
		t.Fatalf("%d contexts left behind: %v", srv.Contexts(), err)
	}
}

// BenchmarkTCPQuery measures end-to-end distributed query latency over real
// loopback TCP (two sites, cross-site ring of 8).
func BenchmarkTCPQuery(b *testing.B) {
	stores := []*store.Store{store.New(1), store.New(2)}
	var servers []*Server
	for i, st := range stores {
		id := object.SiteID(i + 1)
		peer := object.SiteID(2 - i)
		srv, err := New(site.Config{ID: id, Store: st, Peers: []object.SiteID{peer}}, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
	}
	servers[0].AddPeer(2, servers[1].Addr())
	servers[1].AddPeer(1, servers[0].Addr())
	client, err := NewClient(100, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	for _, s := range servers {
		client.AddServer(s.ID(), s.Addr())
		s.AddPeer(client.ID(), client.Addr())
	}
	objs := make([]*object.Object, 8)
	for i := range objs {
		objs[i] = stores[i%2].NewObject()
	}
	var root object.ID
	for i, o := range objs {
		if i == 0 {
			root = o.ID
		}
		o.Add("keyword", object.Keyword("hot"), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%8].ID))
		if err := stores[i%2].Put(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err := client.Exec(1, tcpClosure, []object.ID{root}, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if len(cm.IDs) != 8 {
			b.Fatalf("results = %d", len(cm.IDs))
		}
	}
}

// TestTCPLiveMigration exercises the full migration protocol over real TCP:
// Migrate -> MigrateData -> MigrateDone (second move only: the first leaves
// from the birth site) -> Migrated, then queries that forward through the
// naming chain.
func TestTCPLiveMigration(t *testing.T) {
	const n = 3
	stores := make([]*store.Store, n)
	dirs := make([]*naming.Directory, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		id := object.SiteID(i + 1)
		stores[i] = store.New(id)
		dirs[i] = naming.New(id)
		var peers []object.SiteID
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, object.SiteID(j+1))
			}
		}
		srv, err := New(site.Config{
			ID: id, Store: stores[i], Router: dirs[i], Directory: dirs[i], Peers: peers,
		}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
	}
	for _, a := range servers {
		for _, b := range servers {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	client, err := NewClient(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, s := range servers {
		client.AddServer(s.ID(), s.Addr())
		s.AddPeer(client.ID(), client.Addr())
	}

	// Ring of 6 with naming registration.
	objs := make([]*object.Object, 6)
	for i := range objs {
		objs[i] = stores[i%n].NewObject()
	}
	ids := make([]object.ID, 6)
	for i, o := range objs {
		ids[i] = o.ID
		o.Add("keyword", object.Keyword("hot"), object.Value{})
		o.Add("Pointer", object.String("Reference"), object.Pointer(objs[(i+1)%6].ID))
		if err := stores[i%n].Put(o); err != nil {
			t.Fatal(err)
		}
		dirs[i%n].Register(o.ID)
	}

	// Move ids[1] (born at site 2) to site 3, live.
	if err := client.Migrate(ids[1], 3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := stores[2].Get(ids[1]); !ok {
		t.Error("object missing at new site")
	}
	// Full closure still answers via forwarding.
	cm, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 6 {
		t.Errorf("results after migration = %d, want 6", len(cm.IDs))
	}
	// Second move goes through the birth site's (eventually updated)
	// authority chain.
	if werr := waitfor.Until(5*time.Second, func() bool {
		err = client.Migrate(ids[1], 1, 5*time.Second)
		return err == nil
	}); werr != nil {
		t.Fatalf("second migration never succeeded: %v", err)
	}
	if _, ok := stores[0].Get(ids[1]); !ok {
		t.Error("object missing after second migration")
	}
	// Migration of a nonexistent object reports failure.
	if err := client.Migrate(object.ID{Birth: 1, Seq: 9999}, 2, 5*time.Second); err == nil {
		t.Error("expected failure for unknown object")
	}
}

func TestLoadObjects(t *testing.T) {
	servers, stores, client := testDeployment(t, 1)
	o := stores[0].NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	if err := servers[0].LoadObjects([]*object.Object{o}); err != nil {
		t.Fatal(err)
	}
	cm, err := client.Exec(1, `S (keyword, "hot", ?) -> T`, []object.ID{o.ID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 1 {
		t.Errorf("results = %v", cm.IDs)
	}
}

// TestReaderTurnHandsOffToLoop: the reader that delivers a Submit runs the
// site turn itself, bounded to site.FlushEvery messages plus steps. A query
// needing four times that many steps at one site completes with no further
// inbound traffic, so the reader's release handed the rest to the loop (the
// loop's own turn counter shows it). Stats and Contexts called from another
// goroutine while turns run still return. The subtest is named for the
// site's single stepper.
func TestReaderTurnHandsOffToLoop(t *testing.T) {
	t.Run("workers=1", readerTurnHandsOffToLoop)
}

func readerTurnHandsOffToLoop(t *testing.T) {
	const (
		n     = 4 * site.FlushEvery
		burst = 8 // queries submitted at once while Stats/Contexts probe
	)
	st := store.New(1)
	ids := loadServerRing(t, []*store.Store{st}, n)
	reg := metrics.NewRegistry()
	srv, err := NewOpts(site.Config{ID: 1, Store: st}, "127.0.0.1:0", nil, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	replies := make(chan *wire.Complete, 1+burst) // one per query
	client := bareEndpoint(t, srv, 100, func(_ object.SiteID, m wire.Msg) {
		if cm, ok := m.(*wire.Complete); ok {
			replies <- cm
		}
	})
	submit := func(seq uint64) {
		t.Helper()
		sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: seq}, Client: 100,
			Body: tcpClosure, Initial: ids[:1]}
		if err := client.Send(1, sub); err != nil {
			t.Fatal(err)
		}
	}
	await := func() {
		t.Helper()
		select {
		case cm := <-replies:
			if cm.Err != "" || len(cm.IDs) != n/2 {
				t.Fatalf("Complete %v: %d ids (err %q), want %d", cm.QID, len(cm.IDs), cm.Err, n/2)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("query never completed after the reader's bounded turn")
		}
	}

	submit(1)
	await()
	turns := reg.Snapshot().Counters
	if turns["hf_turns_reader"] == 0 {
		t.Error("hf_turns_reader = 0: the delivering reader ran no turn")
	}
	if turns["hf_turns_loop"] == 0 {
		t.Error("hf_turns_loop = 0: the reader's remainder never reached the loop")
	}

	stop := make(chan struct{})
	probes := make(chan int, 1)
	go func() {
		k := 0
		for {
			select {
			case <-stop:
				probes <- k
				return
			default:
			}
			_ = srv.Stats()
			_ = srv.Contexts()
			k++
		}
	}()
	for q := uint64(2); q < 2+burst; q++ {
		submit(q)
	}
	for q := 0; q < burst; q++ {
		await()
	}
	close(stop)
	select {
	case k := <-probes:
		if k == 0 {
			t.Error("no Stats/Contexts probe returned while the burst ran")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats/Contexts never returned while turns ran")
	}
}

// TestStepErrorKeepsServing: a Step error is recorded and ends the turn; the
// server goes on handling messages. A bare peer sends a Deref whose credit
// sits at the detector's exponent cap (2^19), so the participant's step
// cannot split a share off for the remote reference it finds. A Submit sent
// afterwards must still be answered.
func TestStepErrorKeepsServing(t *testing.T) {
	st := store.New(1)
	srv, err := NewOpts(site.Config{ID: 1, Store: st, Peers: []object.SiteID{2}}, "127.0.0.1:0", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hop := st.NewObject().
		Add("keyword", object.Keyword("hot"), object.Value{}).
		Add("Pointer", object.String("Reference"), object.Pointer(object.ID{Birth: 2, Seq: 1}))
	if err := st.Put(hop); err != nil {
		t.Fatal(err)
	}
	peer := bareEndpoint(t, srv, 2, func(object.SiteID, wire.Msg) {})
	replies := make(chan wire.Msg, 1)
	client := bareEndpoint(t, srv, 100, func(_ object.SiteID, m wire.Msg) { replies <- m })
	capped := append(binary.AppendUvarint(nil, 1<<19), 1)
	if err := peer.Send(1, &wire.Deref{QID: wire.QueryID{Origin: 2, Seq: 1}, Origin: 2,
		Body: tcpClosure, ObjIDs: []object.ID{hop.ID}, Token: capped}); err != nil {
		t.Fatal(err)
	}
	if err := waitfor.Until(5*time.Second, func() bool { return srv.Err() != nil }); err != nil {
		t.Fatalf("the capped credit never failed a step: %v", err)
	}
	if err := srv.Err(); !strings.Contains(err.Error(), "cannot halve") {
		t.Fatalf("Err = %v, want the step's credit-split error", err)
	}
	sub := &wire.Submit{QID: wire.QueryID{Origin: 1, Seq: 1}, Client: 100,
		Body: `S (keyword, "hot", ?) -> T`, Initial: []object.ID{hop.ID}}
	if err := client.Send(1, sub); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-replies:
		if cm, ok := m.(*wire.Complete); !ok || len(cm.IDs) != 1 {
			t.Fatalf("reply = %+v, want a Complete with one id", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server stopped serving after the step error")
	}
}
