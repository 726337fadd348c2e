// Package server runs a HyperFile site as a network service over the TCP
// transport, and provides the matching client. This is the deployment shape
// of the paper's prototype: one server process per machine, an experimental
// client on a separate machine submitting queries and receiving results.
// The in-process cluster runs the same servers on loopback addresses.
//
// A server runs its site to completion on the goroutine that brought the
// work: the transport reader that delivered a read(2)'s frames takes the
// turn at its read boundary, handles them, steps the site for a bounded
// burst, flushes what that produced and only then reads again, so a serial
// hop costs no hand-off to another thread. The loop goroutine runs the turns
// nobody's read brought (thunks from the tickers and from Stats/Contexts)
// and finishes what a reader's bounded turn left over.
package server

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
)

// Options tunes a server's transport reliability and instrumentation; the
// failure detector's knobs are the site's (site.Tuning). The zero value takes
// transport defaults.
type Options struct {
	// Transport configures the reliability layer (retransmission, dial
	// backoff) and optional fault injection.
	Transport transport.Options
	// Metrics receives the server's instrumentation: site, transport, and
	// termination counters all land in this one registry. Nil gets a fresh
	// registry (a server is always observable; sharing one registry across
	// servers in a test is why this is injectable).
	Metrics *metrics.Registry
}

// Server owns one Site fed by its transport. The site runs in turns: whoever
// holds the turn — the transport reader that delivered the mail, or the
// server's loop goroutine — alone handles mail and steps the site, so the
// site has exactly one stepper at a time.
type Server struct {
	cfg site.Config
	s   *site.Site
	tr  *transport.TCP
	lg  *slog.Logger

	reg    *metrics.Registry
	traces *site.TraceBuffer

	mu      sync.Mutex
	mailbox []mail
	// running marks the turn as held (guarded by mu): its holder alone takes
	// mail, so messages are handled one at a time, in arrival order.
	running bool
	wake    chan struct{}
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	errMu    sync.Mutex
	firstErr error

	// turnsReader and turnsLoop count turns run by transport readers and by
	// the loop goroutine; turnsReaderBusy counts readers that found mail but
	// the turn held, and so left that mail to the holder.
	turnsReader, turnsLoop, turnsReaderBusy *metrics.Counter

	// Failure-detector state (nil maps unless HeartbeatInterval > 0).
	hbMu      sync.Mutex
	heard     map[object.SiteID]time.Time
	suspected map[object.SiteID]bool
}

type mail struct {
	from object.SiteID
	msg  wire.Msg
	// buf is the pooled read buffer msg's borrowed fields alias (nil for
	// thunks). The turn that handles the message releases it once
	// HandleMessage and dispatch have fully consumed the message, which must
	// not be touched afterwards: in race builds the bytes are poisoned so a
	// straggling borrowed read fails loudly.
	buf *wire.ReadBuf
}

// New starts a server for the given site configuration, listening on addr.
// Pass logger nil for a default logger.
func New(cfg site.Config, addr string, logger *slog.Logger) (*Server, error) {
	return NewOpts(cfg, addr, logger, Options{})
}

// NewOpts is New with explicit transport and instrumentation options. It
// hooks the turn onto the transport's read boundary (Options.Transport.Idle
// is the server's own), and starts the loop that runs turns for thunks and
// for work a reader's bounded turn left over, and the heartbeat and
// deadline-sweep tickers when configured.
func NewOpts(cfg site.Config, addr string, logger *slog.Logger, opts Options) (*Server, error) {
	if logger == nil {
		logger = slog.Default()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	// Site, transport, and termination all write into the same registry.
	cfg.Metrics = opts.Metrics
	opts.Transport.Metrics = opts.Metrics
	if cfg.Traces == nil {
		cfg.Traces = site.NewTraceBuffer(site.DefaultTraceCap)
	}
	s := site.New(cfg)
	cfg = s.Config() // with site.New's defaults
	srv := &Server{
		cfg:    cfg,
		s:      s,
		lg:     logger.With("site", cfg.ID.String()),
		reg:    opts.Metrics,
		traces: cfg.Traces,
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),

		turnsReader:     opts.Metrics.Counter("hf_turns_reader"),
		turnsLoop:       opts.Metrics.Counter("hf_turns_loop"),
		turnsReaderBusy: opts.Metrics.Counter("hf_turns_reader_busy"),
	}
	if cfg.HeartbeatInterval > 0 {
		srv.heard = make(map[object.SiteID]time.Time, len(cfg.Peers))
		srv.suspected = make(map[object.SiteID]bool)
		now := time.Now()
		for _, peer := range cfg.Peers {
			srv.heard[peer] = now
		}
	}
	// The server owns its inbound bytes: the mailbox holds each message's
	// buffer reference until a turn has fully consumed it, so the transport
	// can decode in place.
	tcpOpts := opts.Transport
	tcpOpts.BufHandler = srv.post
	tcpOpts.Idle = srv.idle
	tr, err := transport.ListenTCPOpts(cfg.ID, addr, nil, tcpOpts)
	if err != nil {
		return nil, err
	}
	srv.tr = tr
	srv.wg.Add(1)
	go srv.loop()
	if cfg.HeartbeatInterval > 0 {
		srv.wg.Add(1)
		go srv.heartbeatLoop()
	}
	srv.wg.Add(1)
	go srv.sweeperLoop()
	return srv, nil
}

// sweeperLoop periodically expires query deadlines and drains the admission
// queue in a turn. Without it an idle server would never notice
// an expired context, an abandoned drain, or a shed-worthy queued Submit.
func (srv *Server) sweeperLoop() {
	defer srv.wg.Done()
	every := 50 * time.Millisecond
	if d := srv.cfg.QueryDeadline; d > 0 {
		every = d / 4
		if every < time.Millisecond {
			every = time.Millisecond
		}
		if every > 100*time.Millisecond {
			every = 100 * time.Millisecond
		}
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-srv.quit:
			return
		case <-ticker.C:
		}
		srv.postThunk(func() {
			out, err := srv.s.ExpireDeadlines()
			if err != nil {
				srv.fail("deadline sweep failed", err)
				return
			}
			srv.dispatch(out)
		})
	}
}

// Addr returns the server's bound address.
func (srv *Server) Addr() string { return srv.tr.Addr() }

// ID returns the server's site id.
func (srv *Server) ID() object.SiteID { return srv.tr.Self() }

// AddPeer registers another site's (or a client's) address.
func (srv *Server) AddPeer(id object.SiteID, addr string) { srv.tr.AddPeer(id, addr) }

// Metrics returns the server's metrics registry (never nil).
func (srv *Server) Metrics() *metrics.Registry { return srv.reg }

// Traces returns the server's ring of finished query traces (never nil).
func (srv *Server) Traces() *site.TraceBuffer { return srv.traces }

// Stats reads the underlying site's statistics from its registry. Values are
// exact only while the server is idle.
func (srv *Server) Stats() site.Stats { return srv.s.Stats() }

// Contexts reports the site's live query-context count, read in a turn so it
// is consistent with message processing. Tests poll it to
// confirm that finished, cancelled, or expired queries drained.
func (srv *Server) Contexts() int {
	ch := make(chan int, 1)
	srv.postThunk(func() { ch <- srv.s.Contexts() })
	select {
	case n := <-ch:
		return n
	case <-srv.quit:
		return 0
	}
}

// Err returns the first error the server logged while handling a message,
// stepping the engine, or sweeping deadlines (nil normally).
func (srv *Server) Err() error {
	srv.errMu.Lock()
	defer srv.errMu.Unlock()
	return srv.firstErr
}

// fail logs err under msg (with args as extra attributes) and keeps the
// first such error for Err.
func (srv *Server) fail(msg string, err error, args ...any) {
	srv.lg.Error(msg, append(args, "err", err)...)
	srv.errMu.Lock()
	if srv.firstErr == nil {
		srv.firstErr = err
	}
	srv.errMu.Unlock()
}

// post is the transport handler: it only queues. Heartbeats feed the failure
// detector and stop here; any other traffic from a monitored peer also
// refreshes its liveness clock. The message arrives with the pooled buffer it
// was decoded over, and this server owns the reference until a turn finishes
// with the message. When nobody holds the turn the delivering reader runs it
// at its read boundary (idle), after the rest of that read's frames have
// queued behind this one; otherwise the loop is poked as a backstop to the
// holder's release.
func (srv *Server) post(from object.SiteID, m wire.Msg, buf *wire.ReadBuf) {
	srv.noteHeard(from)
	if _, ok := m.(*wire.Heartbeat); ok {
		buf.Release()
		return
	}
	srv.mu.Lock()
	srv.mailbox = append(srv.mailbox, mail{from: from, msg: m, buf: buf})
	held := srv.running
	srv.mu.Unlock()
	if held {
		srv.poke()
	}
}

// noteHeard refreshes a peer's liveness clock; a formerly suspected peer that
// speaks again is reinstated in a turn.
func (srv *Server) noteHeard(from object.SiteID) {
	srv.hbMu.Lock()
	if _, monitored := srv.heard[from]; !monitored {
		srv.hbMu.Unlock()
		return
	}
	srv.heard[from] = time.Now()
	wasSuspect := srv.suspected[from]
	delete(srv.suspected, from)
	srv.hbMu.Unlock()
	if wasSuspect {
		srv.lg.Info("peer reinstated", "peer", from.String())
		srv.postThunk(func() { srv.s.PeerUp(from) })
	}
}

// PeerIsDown reports whether the failure detector currently suspects peer.
// Tests (and operators) poll it instead of guessing how long detection
// takes.
func (srv *Server) PeerIsDown(peer object.SiteID) bool {
	srv.hbMu.Lock()
	defer srv.hbMu.Unlock()
	return srv.suspected[peer]
}

// heartbeatLoop probes peers every HeartbeatInterval and declares any peer
// silent for longer than SuspectAfter dead: the site skips it for new work
// and force-completes queries already engaged with it, returning partial
// answers annotated with the unreachable site.
func (srv *Server) heartbeatLoop() {
	defer srv.wg.Done()
	ticker := time.NewTicker(srv.cfg.HeartbeatInterval)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-srv.quit:
			return
		case <-ticker.C:
		}
		seq++
		for _, peer := range srv.cfg.Peers {
			_ = srv.tr.SendUnreliable(peer, &wire.Heartbeat{Seq: seq})
		}
		srv.checkSuspects()
	}
}

func (srv *Server) checkSuspects() {
	now := time.Now()
	var newly []object.SiteID
	srv.hbMu.Lock()
	for peer, last := range srv.heard {
		if !srv.suspected[peer] && now.Sub(last) > srv.cfg.SuspectAfter {
			srv.suspected[peer] = true
			newly = append(newly, peer)
		}
	}
	srv.hbMu.Unlock()
	for _, peer := range newly {
		peer := peer
		srv.lg.Warn("peer declared down", "peer", peer.String(),
			"silent", srv.cfg.SuspectAfter.String())
		srv.postThunk(func() { srv.dispatch(srv.s.PeerDown(peer)) })
	}
}

// postThunk runs f in a turn (from == 0 marks thunks). It always pokes the
// loop: a thunk has no reader behind it.
func (srv *Server) postThunk(f func()) {
	srv.mu.Lock()
	srv.mailbox = append(srv.mailbox, mail{msg: thunkMsg{f}})
	srv.mu.Unlock()
	srv.poke()
}

// thunkMsg smuggles a closure through the mailbox.
type thunkMsg struct{ f func() }

func (thunkMsg) Kind() wire.Kind     { return wire.KInvalid }
func (thunkMsg) Query() wire.QueryID { return wire.QueryID{} }

func (srv *Server) poke() {
	select {
	case srv.wake <- struct{}{}:
	default:
	}
}

func (srv *Server) take() (mail, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.mailbox) == 0 {
		return mail{}, false
	}
	m := srv.mailbox[0]
	// Zero the vacated slot: the backing array outlives the entry, and a
	// stale copy would pin the message and its read buffer.
	srv.mailbox[0] = mail{}
	srv.mailbox = srv.mailbox[1:]
	return m, true
}

// idle is the transport's read-boundary hook. A reader that finds mail and
// the turn free runs a bounded turn itself, so a serial hop is handled,
// stepped and flushed on the goroutine that read it instead of waking the
// loop.
func (srv *Server) idle() {
	if srv.acquire(true) {
		srv.turnsReader.Inc()
		srv.turn(site.FlushEvery)
	}
}

// loop sleeps until poked, then runs a turn until the site is idle — unless
// another goroutine holds the turn, whose release pokes again if anything is
// left.
func (srv *Server) loop() {
	defer srv.wg.Done()
	for {
		select {
		case <-srv.quit:
			return
		case <-srv.wake:
		}
		if srv.acquire(false) {
			srv.turnsLoop.Inc()
			srv.turn(0)
		}
	}
}

// acquire takes the turn if nobody holds it and the server is not closing. A
// reader takes it only when there is mail to handle.
func (srv *Server) acquire(reader bool) bool {
	if srv.closing() {
		return false
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if reader && len(srv.mailbox) == 0 {
		return false
	}
	if srv.running {
		if reader {
			srv.turnsReaderBusy.Inc()
		}
		return false
	}
	srv.running = true
	return true
}

// closing reports whether Close has begun.
func (srv *Server) closing() bool {
	select {
	case <-srv.quit:
		return true
	default:
		return false
	}
}

// release gives the turn back. Mail that arrived while it was held, or steps
// left over, poke the loop, so no wake-up is lost between holders.
func (srv *Server) release() {
	srv.mu.Lock()
	srv.running = false
	more := len(srv.mailbox) > 0
	srv.mu.Unlock()
	if more || srv.s.HasWork() {
		srv.poke()
	}
}

// turn is the one body every turn holder runs: it handles mail and steps the
// site, flushing the transport after every site.FlushEvery iterations —
// messages handled or items stepped, a run of items counting as that many —
// and once at the end, then releases the turn. A storm of small messages
// then shares one write per peer, while the first envelope of a burst waits
// at most that many iterations (well under a millisecond) for its write. The
// site holds queued Derefs for at most as many of a context's steps, so one
// number bounds how long outbound work waits at a site. A turn always
// flushes before it ends, so a lone message never waits at all. budget > 0
// bounds the iterations (a reader's turn); 0 runs until the site is idle
// (the loop's). A run never crosses the next flush or the budget. A step
// error is recorded and ends the turn; the server keeps serving.
func (srv *Server) turn(budget int) {
	burst := 0 // iterations since the last flush
	for n := 0; budget == 0 || n < budget; {
		if srv.closing() {
			break
		}
		if burst >= site.FlushEvery {
			srv.tr.Flush()
			burst = 0
		}
		used := 1
		if m, ok := srv.take(); ok {
			srv.handle(m)
		} else {
			limit := site.FlushEvery - burst
			if budget > 0 {
				limit = min(limit, budget-n)
			}
			if used = srv.step(limit); used == 0 {
				break
			}
		}
		burst += used
		n += used
	}
	srv.tr.Flush()
	srv.release()
}

// handle runs one piece of mail: a thunk, or a message for the site.
func (srv *Server) handle(m mail) {
	if th, ok := m.msg.(thunkMsg); ok {
		th.f()
		return
	}
	// Learn client addresses from messages that carry them. This is a peek,
	// not the dispatch: every message — matched here or not — falls through
	// to HandleMessage below, which rejects unknown kinds with an error.
	switch cm := m.msg.(type) {
	case *wire.Submit:
		if cm.ClientAddr != "" {
			srv.tr.AddPeer(cm.Client, cm.ClientAddr)
		}
	case *wire.StatsReq:
		if cm.ClientAddr != "" {
			srv.tr.AddPeer(m.from, cm.ClientAddr)
		}
	case *wire.Migrate:
		if cm.ClientAddr != "" {
			srv.tr.AddPeer(cm.Client, cm.ClientAddr)
		}
	case *wire.MigrateData:
		if cm.ClientAddr != "" {
			srv.tr.AddPeer(cm.Client, cm.ClientAddr)
		}
	}
	out, err := srv.s.HandleMessage(m.from, m.msg)
	if err != nil {
		srv.fail("message rejected", err, "from", m.from.String(),
			"kind", m.msg.Kind().String())
		m.buf.Release()
		return
	}
	srv.dispatch(out)
	// The site retains nothing that aliases the read buffer (retained kinds
	// are copy-decoded, bodies are cloned into contexts, tokens are banked at
	// dispatch) and every outbound envelope was encoded when dispatch queued
	// it — only its frame bytes wait for the flush — so the buffer can
	// recycle now.
	m.buf.Release()
}

// step runs up to limit items of one context and queues what it sent,
// returning the iterations used: 0 when no context had work. A step error is
// recorded and reported as no progress, so the caller ends its turn and goes
// on serving.
func (srv *Server) step(limit int) int {
	n, envs, err := srv.s.StepN(limit)
	if err != nil {
		srv.fail("engine step failed", err)
		return 0
	}
	srv.dispatch(envs)
	return n
}

// dispatch queues outbound envelopes on the transport. Each is encoded here
// and now; the bytes go out with the calling loop's next flush.
func (srv *Server) dispatch(envs []wire.Envelope) {
	for _, env := range envs {
		if err := srv.tr.Queue(env.To, env.Msg); err != nil {
			// A down peer must not wedge the server: partial results are
			// better than none. The termination credit on that message is
			// lost; the client's timeout/abort path recovers.
			srv.lg.Warn("send failed", "to", env.To.String(),
				"kind", env.Msg.Kind().String(), "err", err)
		}
	}
}

// Close stops the server.
func (srv *Server) Close() {
	srv.once.Do(func() {
		close(srv.quit)
		srv.poke()
		_ = srv.tr.Close()
	})
	srv.wg.Wait()
}

// LoadObjects installs objects into the server's store (setup time).
func (srv *Server) LoadObjects(objs []*object.Object) error {
	for _, o := range objs {
		if err := srv.cfg.Store.Put(o); err != nil {
			return fmt.Errorf("server: load %v: %w", o.ID, err)
		}
	}
	return nil
}
