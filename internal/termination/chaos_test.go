package termination

import (
	"sync"
	"testing"
	"time"

	"hyperfile/internal/chaos"
	"hyperfile/internal/object"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
)

// The chaos termination test drives real weighted-credit detectors over
// loopback transport.TCP endpoints whose frames a chaos.Injector drops,
// duplicates, delays and reorders, and the reliability layer
// (retransmission + receiver dedup) must present an exactly-once stream to
// the detectors — otherwise credit is lost or double-counted and detection
// either never fires or fires early.

// termSite is one participant: a detector fed from an unbounded mailbox so
// deliveries, which arrive on the transport's reader goroutines, never
// re-enter the detector concurrently.
type termSite struct {
	id  object.SiteID
	n   int
	det Detector
	tr  *transport.TCP

	mu    sync.Mutex
	inbox []termEvent
	wake  chan struct{}
	quit  chan struct{}

	doneOnce *sync.Once    // origin only
	done     chan struct{} // origin only
	errs     chan error    // shared, capacity 1
}

type termEvent struct {
	from object.SiteID
	msg  wire.Msg
}

func (s *termSite) post(from object.SiteID, m wire.Msg) {
	s.mu.Lock()
	s.inbox = append(s.inbox, termEvent{from, m})
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *termSite) take() (termEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inbox) == 0 {
		return termEvent{}, false
	}
	ev := s.inbox[0]
	s.inbox = s.inbox[1:]
	return ev, true
}

func (s *termSite) fail(err error) {
	select {
	case s.errs <- err:
	default:
	}
}

// peerFor picks a deterministic peer other than s for hop j of a work item.
func (s *termSite) peerFor(depth, j int) object.SiteID {
	p := (int(s.id) - 1 + 1 + j + depth) % s.n
	if p == int(s.id)-1 {
		p = (p + 1) % s.n
	}
	return object.SiteID(p + 1)
}

// emit ships detector control messages over the site's transport.
func (s *termSite) emit(qid wire.QueryID, ctls []ControlMsg) {
	for _, c := range ctls {
		if err := s.tr.Send(c.To, &wire.Control{QID: qid, Token: c.Token}); err != nil {
			s.fail(err)
		}
	}
}

// handle processes one exactly-once delivery: work splits more credit and
// fans out while depth remains, then the site goes idle and returns credit.
func (s *termSite) handle(qid wire.QueryID, ev termEvent) {
	switch m := ev.msg.(type) {
	case nil:
		// Seed event (posted by the test): fan work out to every peer, then
		// go idle, recovering the originator's own credit share internally.
		for peer := 2; peer <= s.n; peer++ {
			tok, err := s.det.OnSend(object.SiteID(peer))
			if err != nil {
				s.fail(err)
				return
			}
			work := &wire.Deref{QID: qid, Origin: 1, Start: 3, Token: tok}
			if err := s.tr.Send(object.SiteID(peer), work); err != nil {
				s.fail(err)
			}
		}
		s.emit(qid, s.det.OnIdle())
	case *wire.Deref:
		ctls, err := s.det.OnWorkReceived(ev.from, m.Token)
		if err != nil {
			s.fail(err)
			return
		}
		s.emit(qid, ctls)
		for j := 0; j < 2 && m.Start > 0; j++ {
			peer := s.peerFor(m.Start, j)
			tok, err := s.det.OnSend(peer)
			if err != nil {
				s.fail(err)
				return
			}
			work := &wire.Deref{QID: qid, Origin: 1, Start: m.Start - 1, Token: tok}
			if err := s.tr.Send(peer, work); err != nil {
				s.fail(err)
			}
		}
		s.emit(qid, s.det.OnIdle())
	case *wire.Control:
		if err := s.det.OnControl(ev.from, m.Token); err != nil {
			s.fail(err)
			return
		}
	}
	if s.done != nil && s.det.Done() {
		s.doneOnce.Do(func() { close(s.done) })
	}
}

func (s *termSite) loop(qid wire.QueryID, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if ev, ok := s.take(); ok {
			s.handle(qid, ev)
			continue
		}
		select {
		case <-s.quit:
			return
		case <-s.wake:
		}
	}
}

// TestWeightedTerminationUnderChaos checks the satellite requirement:
// weighted termination must reach zero outstanding credit (Done at the
// originator) when every message can be dropped, duplicated, delayed or
// reordered in flight.
func TestWeightedTerminationUnderChaos(t *testing.T) {
	const n = 4
	inj := chaos.NewInjector(chaos.Config{
		Seed:        17,
		DropRate:    0.25,
		DupRate:     0.25,
		DelayRate:   0.50,
		MinDelay:    100 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
		ReorderRate: 0.30,
	})

	qid := wire.QueryID{Origin: 1, Seq: 1}
	errs := make(chan error, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	sites := make([]*termSite, 0, n)
	for i := 1; i <= n; i++ {
		id := object.SiteID(i)
		s := &termSite{
			id:   id,
			n:    n,
			det:  New(Weighted, id, 1),
			wake: make(chan struct{}, 1),
			quit: make(chan struct{}),
			errs: errs,
		}
		if i == 1 {
			s.doneOnce = &sync.Once{}
			s.done = done
		}
		tr, err := transport.ListenTCPOpts(id, "127.0.0.1:0", s.post, transport.Options{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		s.tr = tr
		sites = append(sites, s)
	}
	for _, a := range sites {
		for _, b := range sites {
			if a != b {
				a.tr.AddPeer(b.id, b.tr.Addr())
			}
		}
	}
	for _, s := range sites {
		wg.Add(1)
		go s.loop(qid, &wg)
	}
	defer func() {
		for _, s := range sites {
			close(s.quit)
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
		wg.Wait()
	}()

	// Seed on the originator's worker goroutine so the detector is only ever
	// touched from there.
	sites[0].post(0, nil)

	select {
	case <-done:
	case err := <-errs:
		t.Fatalf("detector error under chaos: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("weighted termination never detected under chaos")
	}
	select {
	case err := <-errs:
		t.Errorf("detector error under chaos: %v", err)
	default:
	}
}
