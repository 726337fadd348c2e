package site

import (
	"fmt"
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
		return s.handleMigrateData(m)
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

// statsResp snapshots the site's counters for administration clients.
func (s *Site) statsResp(seq uint64) *wire.StatsResp {
	st := s.statsLocked()
	return &wire.StatsResp{
		Seq:      seq,
		Site:     s.cfg.ID,
		Contexts: uint64(len(s.contexts)),
		Objects:  uint64(s.cfg.Store.Len()),
		Counters: []wire.Counter{
			{Name: "derefs_sent", Value: uint64(st.DerefsSent)},
			{Name: "deref_entries_sent", Value: uint64(st.DerefEntriesSent)},
			{Name: "derefs_batched", Value: uint64(st.DerefsBatched)},
			{Name: "derefs_suppressed", Value: uint64(st.DerefsSuppressed)},
			{Name: "derefs_received", Value: uint64(st.DerefsReceived)},
			{Name: "results_sent", Value: uint64(st.ResultsSent)},
			{Name: "results_received", Value: uint64(st.ResultsReceived)},
			{Name: "controls_sent", Value: uint64(st.ControlsSent)},
			{Name: "controls_received", Value: uint64(st.ControlsReceived)},
			{Name: "forwards", Value: uint64(st.Forwards)},
			{Name: "completed", Value: uint64(st.Completed)},
			{Name: "objects_processed", Value: uint64(st.Engine.Processed)},
			{Name: "results_added", Value: uint64(st.Engine.Results)},
			{Name: "duplicates_skipped", Value: uint64(st.Engine.Skipped)},
			{Name: "missing_objects", Value: uint64(st.Engine.Missing)},
			{Name: "disk_reads", Value: uint64(s.cfg.Store.DiskReads())},
			{Name: "plan_compiles", Value: uint64(st.PlanCompiles)},
			{Name: "plan_cache_hits", Value: uint64(st.PlanCacheHits)},
			{Name: "admitted", Value: uint64(st.Admitted)},
			{Name: "rejected", Value: uint64(st.Rejected)},
			{Name: "shed", Value: uint64(st.Shed)},
			{Name: "cancelled", Value: uint64(st.Cancelled)},
			{Name: "deadline_expired", Value: uint64(st.DeadlineExpired)},
			{Name: "fair_deferred", Value: uint64(st.FairDeferred)},
			{Name: "tuples_scanned", Value: uint64(st.Engine.TuplesScanned)},
			{Name: "index_probes", Value: uint64(st.Engine.IndexProbes)},
			{Name: "initial_pruned", Value: uint64(st.Engine.InitialPruned)},
		},
	}
}

// handleSubmit gates a new query through admission control, then sets up the
// originator context and seeds the working set.
func (s *Site) handleSubmit(m *wire.Submit) ([]wire.Envelope, error) {
	if _, ok := s.contexts[m.QID]; ok {
		return nil, fmt.Errorf("%w: duplicate submit for %v", ErrProtocol, m.QID)
	}
	for _, p := range s.admitQ {
		if p.m.QID == m.QID {
			return nil, fmt.Errorf("%w: duplicate submit for %v", ErrProtocol, m.QID)
		}
	}
	deadline := s.submitDeadline(m, time.Now())
	if s.atCapacity() {
		if len(s.admitQ) < s.cfg.AdmissionQueue {
			s.admitQ = append(s.admitQ, pendingSubmit{m: m, deadline: deadline})
			s.met.admissionQueue.Set(int64(len(s.admitQ)))
			return nil, nil
		}
		return []wire.Envelope{s.reject(m, "admission: site at max-inflight, queue full")}, nil
	}
	return s.admitSubmit(m, deadline)
}

// admitSubmit creates the originator context for an admitted Submit.
func (s *Site) admitSubmit(m *wire.Submit, deadline time.Time) ([]wire.Envelope, error) {
	p, fp, pinned, err := s.planFor(m.Body, nil)
	if err != nil {
		// Reject at submission time: the client gets the error, no context
		// is created anywhere.
		return []wire.Envelope{{To: m.Client, Msg: &wire.Complete{
			QID: m.QID, Err: err.Error(),
		}}}, nil
	}
	ctx := s.newCtx(m.QID, s.cfg.ID, m.Body, p, fp, pinned, 0)
	ctx.client = m.Client
	ctx.fairClient = m.ClientID
	ctx.deadline = deadline
	s.stats.Admitted++
	s.met.admitted.Inc()

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
			s.stats.SeedsSent++
			s.met.seedsSent.Inc()
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
	ctx, err := s.ctxFor(m.QID, m.Origin, m.Body, m.BodyHash, m.Hop)
	if err != nil {
		return nil, err
	}
	ctx.noteBudget(m.BudgetUS, time.Now())
	s.stats.DerefsReceived++
	s.met.derefsReceived.Inc()
	if _, err := ctx.det.OnWorkReceived(from, m.Token); err != nil {
		return nil, err
	}
	// Spans handed on with the sender's credit travel on with this site's.
	if ctx.isOrigin {
		ctx.ingestSpans(m.Spans)
	} else {
		ctx.pendingSpans = append(ctx.pendingSpans, m.Spans...)
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
		ctx.eng.Enqueue(engine.Item{ID: objID, Start: m.Start, Iters: m.Iters})
	}
	var out []wire.Envelope
	for _, owner := range fwdOrder {
		ids := fwd[owner]
		tok, err := ctx.det.OnSend(owner)
		if err != nil {
			return out, err
		}
		s.stats.Forwards += len(ids)
		s.stats.DerefsSent++
		s.stats.DerefEntriesSent += len(ids)
		s.met.forwards.Add(uint64(len(ids)))
		s.met.derefsSent.Inc()
		s.met.derefEntriesSent.Add(uint64(len(ids)))
		out = append(out, wire.Envelope{To: owner, Msg: &wire.Deref{
			QID: m.QID, Origin: m.Origin, Body: m.Body, BodyHash: ctx.fp.Bytes(),
			ObjIDs: ids, Start: m.Start, Iters: m.Iters, Token: tok,
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
	ctx, err := s.ctxFor(m.QID, m.Origin, m.Body, nil, m.Hop)
	if err != nil {
		return nil, err
	}
	ctx.noteBudget(m.BudgetUS, time.Now())
	s.stats.SeedsReceived++
	s.met.seedsReceived.Inc()
	if _, err := ctx.det.OnWorkReceived(from, m.Token); err != nil {
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
	s.stats.ResultsReceived++
	s.met.resultsReceived.Inc()
	ctx.ingestSpans(m.Spans)
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
	s.stats.ControlsReceived++
	s.met.controlsReceived.Inc()
	if ctx.isOrigin {
		ctx.ingestSpans(m.Spans)
	}
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
		s.finishCtx(ctx)
		s.releaseQueryResources(ctx)
		return nil
	}
	s.dropCtx(m.QID)
	return nil
}
