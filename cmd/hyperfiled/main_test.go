package main

import (
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hyperfile/internal/dump"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
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
			TermMode: "weighted",
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
	stop := make(chan os.Signal)
	base := config{SiteID: 1, Listen: "127.0.0.1:0", TermMode: "weighted"}
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
	bad.TermMode = "martian"
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected termination-mode error")
	}
	bad = base
	bad.ChaosDrop = 2
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected chaos-rate range error")
	}
	bad = base
	bad.ChaosReorder = -0.1
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative chaos-rate error")
	}
	bad = base
	bad.ChaosMaxDelay = -time.Millisecond
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
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative max-inflight error")
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
	bad.Workers = -2
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative workers error")
	}
	bad = base
	bad.FairQuantum = -1
	if err := run(bad, lg, stop, nil); err == nil {
		t.Error("expected negative fair-quantum error")
	}
}

// TestRunWorkerPoolFlags boots a server with a stepping pool and DRR
// fairness enabled and checks that queries still answer exactly — the flags
// wire through site.Config and the server spawns the extra step workers
// without perturbing results or shutdown.
func TestRunWorkerPoolFlags(t *testing.T) {
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
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath, TermMode: "weighted",
			Workers: 4, FairQuantum: 2,
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
	for i := 0; i < 4; i++ {
		cm, err := cl.Exec(1, `S (keyword, "net", ?) -> T`, []object.ID{o.ID}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(cm.IDs) != 1 || cm.Partial {
			t.Errorf("query %d: ids %v partial %v", i, cm.IDs, cm.Partial)
		}
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
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
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath, TermMode: "weighted",
			MaxInflight: 4, AdmissionQueue: 8, QueryDeadline: 5 * time.Second,
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
			SiteID: 1, Listen: "127.0.0.1:0", Data: dataPath, TermMode: "weighted",
			Heartbeat: 50 * time.Millisecond,
			ChaosSeed: 99, ChaosDrop: 0.2, ChaosDup: 0.1,
			ChaosDelay: 0.3, ChaosMaxDelay: 2 * time.Millisecond,
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
