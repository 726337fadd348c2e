package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/dump"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
)

// TestRunServeQueryShutdownSnapshot boots a real hyperfiled via run(),
// queries it over TCP, shuts it down, and checks the exit snapshot.
func TestRunServeQueryShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()

	// Dataset file: one object with a keyword.
	st := store.New(1)
	o := st.NewObject().Add("keyword", object.Keyword("net"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "data.jsonl")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := st.Get(o.ID)
	if err := dump.Write(f, []*object.Object{obj}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	savePath := filepath.Join(dir, "snapshot.jsonl")
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	go func() {
		done <- run(config{
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath, Save: savePath,
		}, lg, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}

	cl, err := server.NewClient(500, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.AddServer(1, addr)
	cm, err := cl.Exec(1, `S (keyword, "net", ?) -> T`, []object.ID{o.ID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 1 {
		t.Errorf("results = %v", cm.IDs)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	sf, err := os.Open(savePath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	objs, err := dump.Read(sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].ID != o.ID {
		t.Errorf("snapshot = %v", objs)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	// stop is closed: a config that wrongly passes validation serves and
	// shuts down at once instead of hanging the test.
	stop := make(chan os.Signal)
	close(stop)
	base := config{SiteID: 1, Listen: "127.0.0.1:0"}
	bad := base
	bad.Peers = "bogus-peers"
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected peer-spec error")
	}
	bad = base
	bad.Data = "/nonexistent/data"
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected data-file error")
	}
	bad = base
	bad.Chaos.DropRate = 2
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected chaos-rate range error")
	}
	bad = base
	bad.Chaos.ReorderRate = -0.1
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative chaos-rate error")
	}
	bad = base
	bad.Chaos.MaxDelay = -time.Millisecond
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative max-delay error")
	}
	bad = base
	bad.SuspectAfter = time.Second
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected suspect-after-without-heartbeat error")
	}
	bad = base
	bad.MaxInflight = -1
	if err := run(bad, lg, stop, nil); err == nil || !strings.Contains(err.Error(), "-max-inflight -1") {
		t.Errorf("negative max-inflight: err = %v", err)
	}
	bad = base
	bad.AdmissionQueue = -4
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative admission-queue error")
	}
	bad = base
	bad.AdmissionQueue = 4
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected admission-queue-without-max-inflight error")
	}
	bad = base
	bad.QueryDeadline = -time.Second
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative query-deadline error")
	}
	bad = base
	bad.HeartbeatInterval = -time.Second
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative heartbeat error")
	}
}

// TestHyperfiledFlagSet pins the command line: a flag added or removed shows
// up here as a reviewed diff.
func TestHyperfiledFlagSet(t *testing.T) {
	var cfg config
	fs := flag.NewFlagSet("hyperfiled", flag.ContinueOnError)
	flags(&cfg, fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"admission-queue", "chaos-delay", "chaos-drop", "chaos-dup",
		"chaos-max-delay", "chaos-reorder", "chaos-seed", "data", "heartbeat",
		"listen", "max-inflight", "metrics-addr", "peers", "query-deadline",
		"save", "site", "suspect-after",
	}
	if !slices.Equal(got, want) {
		t.Errorf("hyperfiled flags = %q, want %q", got, want)
	}
}

// TestRunOverloadFlags boots a server with admission control and a default
// deadline enabled and checks a within-bound query still answers exactly —
// the flags wire through site.Config without perturbing normal service.
func TestRunOverloadFlags(t *testing.T) {
	st := store.New(1)
	o := st.NewObject().Add("keyword", object.Keyword("net"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(t.TempDir(), "data.jsonl")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := st.Get(o.ID)
	if err := dump.Write(f, []*object.Object{obj}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	go func() {
		done <- run(config{
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath,
			Tuning: site.Tuning{MaxInflight: 4, AdmissionQueue: 8, QueryDeadline: 5 * time.Second},
		}, lg, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}
	cl, err := server.NewClient(500, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.AddServer(1, addr)
	cm, err := cl.Exec(1, `S (keyword, "net", ?) -> T`, []object.ID{o.ID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 1 || cm.Partial {
		t.Errorf("within-bound query: ids %v partial %v", cm.IDs, cm.Partial)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// TestRunWithChaosAndHeartbeat boots a server with fault injection and the
// failure detector enabled; the reliability layer must still answer queries
// exactly.
func TestRunWithChaosAndHeartbeat(t *testing.T) {
	st := store.New(1)
	o := st.NewObject().Add("keyword", object.Keyword("net"), object.Value{})
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(t.TempDir(), "data.jsonl")
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := st.Get(o.ID)
	if err := dump.Write(f, []*object.Object{obj}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	go func() {
		done <- run(config{
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath,
			Tuning: site.Tuning{HeartbeatInterval: 50 * time.Millisecond},
			Chaos: chaos.Config{Seed: 99, DropRate: 0.2, DupRate: 0.1,
				DelayRate: 0.3, MaxDelay: 2 * time.Millisecond},
		}, lg, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}
	cl, err := server.NewClient(500, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.AddServer(1, addr)
	cm, err := cl.Exec(1, `S (keyword, "net", ?) -> T`, []object.ID{o.ID}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.IDs) != 1 {
		t.Errorf("results = %v", cm.IDs)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("1=127.0.0.1:7001, 2=host:7002,3=h:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != "127.0.0.1:7001" || got[2] != "host:7002" || got[3] != "h:1" {
		t.Errorf("peers = %v", got)
	}
	empty, err := parsePeers("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty spec: %v %v", empty, err)
	}
	for _, bad := range []string{"nope", "x=addr", "1", "=addr", "9999999999999999999=a"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q): expected error", bad)
		}
	}
}

// TestRetiredFlagsRejected: batching is the protocol, not a switch, and so
// are the weighted termination detector and the round robin over clients.
// Distributed-set retention is gone from the command line: it kept contexts
// that no TCP client can seed a follow-up query from, and a site has one
// stepper, so the stepping pool's width is gone too, and every site caches
// its compiled plans, so the cache's size is gone as well. A selection always
// scans tuples, so the index switch is gone, and the result-message cap is an
// ablation no deployment sets. Each removed flag is an error.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-deref-batch", "8"},
		{"-termination", "weighted"},
		{"-fair-quantum", "2"},
		{"-dist-threshold", "100"},
		{"-workers", "4"},
		{"-plan-cache", "8"},
		{"-index"},
		{"-result-batch", "8"},
	} {
		var cfg config
		fs := flag.NewFlagSet("hyperfiled", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(&cfg, fs)
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", args[0], err)
		}
	}
}

// TestSiteConfigFromDefaultFlags: with every flag at its default, hyperfiled
// builds its site from the site.Config zero value plus identity, store and
// peers, so site.New alone decides the production protocol.
func TestSiteConfigFromDefaultFlags(t *testing.T) {
	var cfg config
	fs := flag.NewFlagSet("hyperfiled", flag.ContinueOnError)
	flags(&cfg, fs)
	if err := fs.Parse([]string{"-site", "2"}); err != nil {
		t.Fatal(err)
	}
	st := store.New(2)
	peers := []object.SiteID{1, 3}
	got := siteConfig(cfg, st, peers)
	if want := (site.Config{ID: 2, Store: st, Peers: peers}); !reflect.DeepEqual(got, want) {
		t.Errorf("siteConfig from default flags = %+v, want %+v", got, want)
	}
}

// TestDefaultFlagClusterBatchesFanOut boots three hyperfiled sites over TCP
// with only the deployment flags set, and runs a query whose root fans out
// to eight objects on each other site. With no switch to turn it on, each
// peer's share travels as one batched Deref: hf_deref_batched is positive
// and more ids than messages were sent. The answer is exact.
func TestDefaultFlagClusterBatchesFanOut(t *testing.T) {
	const sites, fan = 3, 8
	dir := t.TempDir()
	write := func(s object.SiteID, objs []*object.Object) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("site-%d.jsonl", s)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := dump.Write(f, objs); err != nil {
			t.Fatal(err)
		}
	}
	hot := func(st *store.Store) *object.Object {
		return st.NewObject().Add("keyword", object.Keyword("hot"), object.Value{})
	}
	// Site 1 holds only the root; every leaf is on another site. want lists
	// the answer in the sorted order Complete uses.
	root := hot(store.New(1))
	want := []object.ID{root.ID}
	for s := object.SiteID(2); s <= sites; s++ {
		st := store.New(s)
		var leaves []*object.Object
		for i := 0; i < fan; i++ {
			leaf := hot(st)
			root.Add("Pointer", object.String("Ref"), object.Pointer(leaf.ID))
			leaves = append(leaves, leaf)
			want = append(want, leaf.ID)
		}
		write(s, leaves)
	}
	write(1, []*object.Object{root})

	var addrs []string
	var shutdown func()
	for attempt := 1; ; attempt++ {
		var err error
		if addrs, shutdown, err = bootSites(t, dir, sites); err == nil {
			break
		} else if attempt == 3 {
			t.Fatal(err)
		}
	}
	defer shutdown()

	cl, err := server.NewClient(500, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < sites; i++ {
		cl.AddServer(object.SiteID(i+1), addrs[i])
	}
	cm, err := cl.Exec(1, `S (Pointer, "Ref", ?X) ^^X (keyword, "hot", ?) -> T`, []object.ID{root.ID}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Partial || !slices.Equal(cm.IDs, want) {
		t.Errorf("answer %v (partial %v), want %v", cm.IDs, cm.Partial, want)
	}

	resp, err := http.Get("http://" + addrs[sites] + "/debug/hyperfile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Metrics.Counters
	if c["hf_deref_batched"] == 0 || c["site_deref_entries_sent"] <= c["site_derefs_sent"] {
		t.Errorf("origin sent %d Derefs carrying %d ids, %d batched: want batches",
			c["site_derefs_sent"], c["site_deref_entries_sent"], c["hf_deref_batched"])
	}
}

// bootSites runs sites hyperfiled instances on dir's site-N.jsonl files and
// returns their listen addresses followed by their metrics addresses, and a
// function that shuts them all down. Every site must know its peers'
// addresses before any of them boots, so each port is reserved on :0 and
// released for its server to bind; another process can take a port in
// between. A site that fails to boot stops the ones already up and the error
// is returned, so the caller can retry on fresh ports.
func bootSites(t *testing.T, dir string, sites int) ([]string, func(), error) {
	addrs := make([]string, 2*sites)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	var stops []chan os.Signal
	var dones []chan error
	shutdown := func() {
		for i := range stops {
			stops[i] <- os.Interrupt
			if err := <-dones[i]; err != nil {
				t.Errorf("site %d: run returned %v", i+1, err)
			}
		}
	}
	for i := 0; i < sites; i++ {
		var peers []string
		for j := 0; j < sites; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j+1, addrs[j]))
			}
		}
		var cfg config
		fs := flag.NewFlagSet("hyperfiled", flag.ContinueOnError)
		flags(&cfg, fs)
		if err := fs.Parse([]string{
			"-site", fmt.Sprint(i + 1), "-listen", addrs[i],
			"-peers", strings.Join(peers, ","),
			"-data", filepath.Join(dir, fmt.Sprintf("site-%d.jsonl", i+1)),
			"-metrics-addr", addrs[sites+i],
		}); err != nil {
			t.Fatal(err)
		}
		stop, done, ready := make(chan os.Signal, 1), make(chan error, 1), make(chan string, 1)
		go func() { done <- run(cfg, lg, stop, ready) }()
		select {
		case <-ready:
			stops, dones = append(stops, stop), append(dones, done)
		case err := <-done:
			shutdown()
			return nil, nil, fmt.Errorf("site %d exited early: %w", i+1, err)
		}
	}
	return addrs, shutdown, nil
}
