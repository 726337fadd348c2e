package site

import (
	"fmt"
	"sort"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// HandleMessage processes one inbound message and returns the envelopes to
// deliver in response. Any event may finish a context and open an admission
// slot, so queued Submits are (re)considered after every dispatch.
func (s *Site) HandleMessage(from object.SiteID, m wire.Msg) ([]wire.Envelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.dispatch(from, m)
	if err != nil {
		return out, err
	}
	drained, err := s.drainAdmission()
	return append(out, drained...), err
}

func (s *Site) dispatch(from object.SiteID, m wire.Msg) ([]wire.Envelope, error) {
	switch m := m.(type) {
	case *wire.Submit:
		return s.handleSubmit(m)
	case *wire.Cancel:
		return s.handleCancel(m)
	case *wire.Deref:
		return s.handleDeref(from, m)
	case *wire.Seed:
		return s.handleSeed(from, m)
	case *wire.Result:
		return s.handleResult(from, m)
	case *wire.Control:
		return s.handleControl(from, m)
	case *wire.Finish:
		return s.handleFinish(from, m), nil
	case *wire.StatsReq:
		return []wire.Envelope{{To: from, Msg: s.statsResp(m.Seq)}}, nil
	case *wire.Migrate:
		return s.handleMigrate(m)
	case *wire.MigrateData:
		return s.handleMigrateData(from, m)
	case *wire.MigrateDone:
		s.handleMigrateDone(m)
		return nil, nil
	case *wire.Heartbeat:
		// Liveness probes are normally consumed by the server's failure
		// detector before reaching site logic; tolerate strays.
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unexpected %v message at server site", ErrProtocol, m.Kind())
	}
}

// statsResp sends administration clients every counter of the site's
// registry under its own name, and the store's disk reads, sorted by name.
func (s *Site) statsResp(seq uint64) *wire.StatsResp {
	counters := s.cfg.Metrics.Snapshot().Counters
	counters["disk_reads"] = uint64(s.cfg.Store.DiskReads())
	resp := &wire.StatsResp{
		Seq:      seq,
		Site:     s.cfg.ID,
		Contexts: uint64(len(s.contexts)),
		Objects:  uint64(s.cfg.Store.Len()),
		Counters: make([]wire.Counter, 0, len(counters)),
	}
	for name, v := range counters {
		resp.Counters = append(resp.Counters, wire.Counter{Name: name, Value: v})
	}
	sort.Slice(resp.Counters, func(i, j int) bool { return resp.Counters[i].Name < resp.Counters[j].Name })
	return resp
}

// handleSubmit gates a new query through admission control, then sets up the
// originator context and seeds the working set.
func (s *Site) handleSubmit(m *wire.Submit) ([]wire.Envelope, error) {
	if _, ok := s.contexts[m.QID]; ok {
		return nil, fmt.Errorf("%w: duplicate submit for %v", ErrProtocol, m.QID)
	}
	if s.admitQ.has(func(p pendingSubmit) bool { return p.m.QID == m.QID }) {
		return nil, fmt.Errorf("%w: duplicate submit for %v", ErrProtocol, m.QID)
	}
	if s.tombstoned(m.QID) {
		// A client Cancel overtook its Submit and tombstoned the query here:
		// answer as a Cancel of a queued Submit does, and start nothing.
		s.met.Cancelled.Inc()
		return []wire.Envelope{{To: m.Client, Msg: &wire.Reject{
			QID: m.QID, Reason: "cancelled before admission",
		}}}, nil
	}
	deadline := s.submitDeadline(m, time.Now())
	if s.atCapacity() {
		if s.admitQ.n < s.cfg.AdmissionQueue {
			s.admitQ.push(s.admitQ.lane(m.ClientID), pendingSubmit{m: m, deadline: deadline})
			s.met.admissionQueue.Set(int64(s.admitQ.n))
			return nil, nil
		}
		return []wire.Envelope{s.reject(m, "admission: site at max-inflight, queue full")}, nil
	}
	return s.admitSubmit(m, deadline)
}

// admitSubmit creates the originator context for an admitted Submit.
func (s *Site) admitSubmit(m *wire.Submit, deadline time.Time) ([]wire.Envelope, error) {
	p, fp, err := s.planFor(m.Body, nil)
	if err != nil {
		// Reject at submission time: the client gets the error, no context
		// is created anywhere.
		return []wire.Envelope{{To: m.Client, Msg: &wire.Complete{
			QID: m.QID, Err: err.Error(),
		}}}, nil
	}
	ctx := s.newCtx(m.QID, s.cfg.ID, m.ClientID, m.Body, p, fp, 0)
	ctx.client = m.Client
	ctx.deadline = deadline
	s.met.Admitted.Inc()

	var out []wire.Envelope
	if m.InitialFromResultOf != (wire.QueryID{}) {
		// Distributed-set seeding: use the local retained portion, and ask
		// every peer to seed from its own.
		if prev, ok := s.contexts[m.InitialFromResultOf]; ok {
			ctx.eng.AddInitial(prev.retained...)
		}
		for _, peer := range s.cfg.Peers {
			if s.down[peer] {
				s.noteUnreachable(ctx, peer)
				continue
			}
			tok, err := ctx.det.OnSend(peer)
			if err != nil {
				return out, err
			}
			ctx.engage(peer)
			s.met.SeedsSent.Inc()
			out = append(out, wire.Envelope{To: peer, Msg: &wire.Seed{
				QID: m.QID, Origin: s.cfg.ID, Body: m.Body,
				FromQID: m.InitialFromResultOf, Token: tok, Hop: 1,
				BudgetUS: ctx.budgetUS(time.Now()),
			}})
		}
	} else {
		for _, id := range m.Initial {
			if owner, _ := s.cfg.Router.Owner(id); owner == s.cfg.ID {
				ctx.eng.AddInitial(id)
				continue
			}
			if out, err = s.emitDeref(ctx, engine.RemoteRef{ID: id, Start: 0}, out); err != nil {
				return out, err
			}
		}
	}
	s.markReady(ctx)
	return s.afterEvent(ctx, out)
}

// handleDeref installs the context if needed and enqueues the object — or
// forwards the message when the object has moved (section 4 naming).
func (s *Site) handleDeref(from object.SiteID, m *wire.Deref) ([]wire.Envelope, error) {
	if s.tombstoned(m.QID) {
		// The query already finished here; late work must not resurrect it.
		// Bounce the termination payload instead of abandoning it: if the
		// originator is draining a cancelled query, the return is what lets
		// the drain complete.
		return s.bounceToken(m.QID, m.Origin, m.Token), nil
	}
	ctx, created, err := s.ctxFor(m.QID, m.Origin, m.Body, m.BodyHash, m.Hop, m.Start)
	if err != nil {
		return nil, err
	}
	ctx.noteBudget(m.BudgetUS, time.Now())
	s.met.DerefsReceived.Inc()
	if err := s.creditWork(ctx, created, from, m.Token); err != nil {
		return nil, err
	}
	if ctx.finished {
		// Late work for a finished (retained) query: nothing to process.
		return s.afterEvent(ctx, nil)
	}
	// A batch's ids may have diverged since the sender grouped them: some
	// live here, some have moved. Moved ones are forwarded, grouped per
	// current owner so a batch stays a batch (first-appearance order keeps
	// the simulator deterministic).
	var fwdOrder []object.SiteID
	fwd := make(map[object.SiteID][]object.ID)
	for _, objID := range m.ObjIDs {
		if _, ok := s.cfg.Store.Get(objID); !ok {
			if owner, _ := s.cfg.Router.Owner(objID); owner != s.cfg.ID {
				// The object lives elsewhere (moved, or the sender's presumed
				// location was stale): forward the dereference.
				if _, seen := fwd[owner]; !seen {
					fwdOrder = append(fwdOrder, owner)
				}
				fwd[owner] = append(fwd[owner], objID)
				continue
			}
			// Born/owned here but gone: enqueue anyway; the engine records it
			// missing and the query proceeds with partial results.
		}
		ctx.eng.Enqueue(engine.Item{ID: objID, Start: m.Start})
	}
	var out []wire.Envelope
	for _, owner := range fwdOrder {
		ids := fwd[owner]
		tok, err := ctx.det.OnSend(owner)
		if err != nil {
			return out, err
		}
		s.met.Forwards.Add(uint64(len(ids)))
		s.met.DerefsSent.Inc()
		s.met.DerefEntriesSent.Add(uint64(len(ids)))
		out = append(out, wire.Envelope{To: owner, Msg: &wire.Deref{
			QID: m.QID, Origin: m.Origin, Body: m.Body, BodyHash: ctx.fp.Bytes(),
			ObjIDs: ids, Start: m.Start, Token: tok,
			Hop: m.Hop, BudgetUS: ctx.budgetUS(time.Now()),
		}})
	}
	s.markReady(ctx)
	if envs, did, err := s.checkDeadline(ctx); did || err != nil {
		return append(out, envs...), err
	}
	return s.afterEvent(ctx, out)
}

// handleSeed seeds a context from the retained results of a previous query.
func (s *Site) handleSeed(from object.SiteID, m *wire.Seed) ([]wire.Envelope, error) {
	if s.tombstoned(m.QID) {
		return s.bounceToken(m.QID, m.Origin, m.Token), nil
	}
	ctx, created, err := s.ctxFor(m.QID, m.Origin, m.Body, nil, m.Hop, 0)
	if err != nil {
		return nil, err
	}
	ctx.noteBudget(m.BudgetUS, time.Now())
	s.met.SeedsReceived.Inc()
	if err := s.creditWork(ctx, created, from, m.Token); err != nil {
		return nil, err
	}
	if prev, ok := s.contexts[m.FromQID]; ok {
		ctx.eng.AddInitial(prev.retained...)
	}
	s.markReady(ctx)
	if envs, did, err := s.checkDeadline(ctx); did || err != nil {
		return envs, err
	}
	return s.afterEvent(ctx, nil)
}

// handleResult installs a flush from a participant into the originator's
// accumulated answer.
func (s *Site) handleResult(from object.SiteID, m *wire.Result) ([]wire.Envelope, error) {
	ctx, ok := s.contexts[m.QID]
	if !ok {
		// The query finished here already (normally, or force-completed
		// after a peer death); a straggling flush is harmless.
		return nil, nil
	}
	if !ctx.isOrigin {
		return nil, fmt.Errorf("%w: result for %v at non-originator %v", ErrProtocol, m.QID, s.cfg.ID)
	}
	s.met.ResultsReceived.Inc()
	ctx.results = append(ctx.results, m.IDs...)
	ctx.count += m.Count
	ctx.fetches = append(ctx.fetches, m.Fetches...)
	if m.Retained {
		ctx.distributed = true
	}
	for _, p := range m.Unreachable {
		s.noteUnreachable(ctx, p)
	}
	if len(m.Token) > 0 {
		if err := ctx.det.OnControl(from, m.Token); err != nil {
			return nil, err
		}
	}
	return s.afterEvent(ctx, nil)
}

// handleControl feeds a standalone detection token to the context.
func (s *Site) handleControl(from object.SiteID, m *wire.Control) ([]wire.Envelope, error) {
	ctx, ok := s.contexts[m.QID]
	if !ok {
		// The query is gone (finished and discarded); stale tokens are
		// harmless.
		return nil, nil
	}
	s.met.ControlsReceived.Inc()
	if err := ctx.det.OnControl(from, m.Token); err != nil {
		return nil, err
	}
	return s.afterEvent(ctx, nil)
}

// handleFinish discards (or retains) a participant context after global
// termination. A Finish sent by the *client* for a query this site
// originated is an abort request: the client timed out and wants whatever
// partial answer exists.
func (s *Site) handleFinish(from object.SiteID, m *wire.Finish) []wire.Envelope {
	ctx, ok := s.contexts[m.QID]
	if !ok {
		return nil
	}
	if ctx.isOrigin && from == ctx.client && !ctx.finished {
		return s.abortLocked(m.QID)
	}
	if m.Retain {
		// The retained context only answers future seeds from ctx.retained;
		// its dedup state can never be consulted again.
		s.finishCtx(ctx, false)
		s.releaseQueryResources(ctx)
		return nil
	}
	s.dropCtx(m.QID)
	return nil
}
