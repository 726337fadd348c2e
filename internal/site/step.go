package site

import (
	"slices"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// StepOutcome describes one engine step for cost accounting by the caller.
type StepOutcome struct {
	// Query is the query the step advanced.
	Query wire.QueryID
	// Processed reports that an object was actually run through the filters
	// (false for mark-table skips and missing objects).
	Processed bool
	// ResultAdded reports that the object joined the local result set.
	ResultAdded bool
}

// Step advances one query context by one working-set item, in round robin
// over clients and, within a client, over its contexts with work. It returns
// the envelopes to deliver and reports false when no context has work. An
// error indicates a broken protocol invariant (e.g. a termination-credit
// underflow) and leaves the query wedged; callers should surface it.
//
// Step is a run of one (StepN): the simulator charges each object's cost
// and interleaves message arrivals between items.
func (s *Site) Step() (StepOutcome, []wire.Envelope, bool, error) {
	outcome, n, out, err := s.stepN(1)
	return outcome, out, n > 0, err
}

// StepN advances the next context in the round robin by a run of up to limit
// consecutive working-set items (engine.Engine.StepN), paying the site's
// lock, clock reads, counters and drain duties once per run. It returns the
// iterations used — the items stepped, or 1 for a context its deadline shed
// or a cancel emptied — and 0 when no context has work. A context with queued Derefs runs no
// further than the item on which its hold fires, so the site ships exactly
// what one-item Steps would have, after the same item. Turns alternate
// between client lanes whatever their length, so two clients still share the
// site's turns evenly.
//
// The site lock is held across the run: a site has one stepper, whoever holds
// its turn, so the engine never runs concurrently with the site's own
// bookkeeping.
func (s *Site) StepN(limit int) (int, []wire.Envelope, error) {
	_, n, out, err := s.stepN(limit)
	return n, out, err
}

func (s *Site) stepN(limit int) (StepOutcome, int, []wire.Envelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx := s.nextWithWork()
	if ctx == nil {
		return StepOutcome{}, 0, nil, nil
	}
	// An expired context is not stepped: its remaining work is shed and the
	// query completes as an annotated partial answer.
	if envs, did, err := s.checkDeadline(ctx); did || err != nil {
		if err == nil {
			var drained []wire.Envelope
			drained, err = s.drainAdmission()
			envs = append(envs, drained...)
		}
		return StepOutcome{Query: ctx.qid}, 1, envs, err
	}
	// The hold counts this context's steps with queues open: a run ends on
	// the step that fires it.
	queued := len(ctx.qorder) > 0
	if queued {
		limit = min(limit, FlushEvery-ctx.held)
	}
	start := time.Now()
	run := ctx.eng.StepN(limit)
	dur := time.Since(start)
	s.met.noteRun(&run, dur)
	if s.cfg.Traces != nil {
		ctx.noteRun(&run, dur)
	}
	// A popped context costs an iteration even if a cancel emptied its
	// working set before the run took anything.
	n := max(run.Steps, 1)
	outcome := StepOutcome{
		Query:       ctx.qid,
		Processed:   run.Stats.Processed > 0,
		ResultAdded: run.Stats.Results > 0,
	}
	var out []wire.Envelope
	var err error
	for _, ref := range run.Remote {
		if out, err = s.emitDeref(ctx, ref, out); err != nil {
			return outcome, n, out, err
		}
	}
	// The hold: after FlushEvery of this context's steps with queues since
	// the last full flush, every queue ships, however long the local drain.
	// Only a run's last item can open a queue, so a run that found none
	// open adds one step.
	if len(ctx.qorder) > 0 {
		if queued {
			ctx.held += run.Steps
		} else {
			ctx.held++
		}
		if ctx.held >= FlushEvery {
			if out, err = s.flushAllQueues(ctx, out); err != nil {
				return outcome, n, out, err
			}
		}
	}
	out, err = s.afterEvent(ctx, out)
	// Requeue at the client's tail while work remains: contexts with work
	// take strictly alternating turns (round-robin fairness).
	s.markReady(ctx)
	if err == nil {
		var drained []wire.Envelope
		drained, err = s.drainAdmission()
		out = append(out, drained...)
	}
	return outcome, n, out, err
}

// nextWithWork pops the next ready context that still has work. Step
// re-queues the context at its client's tail afterwards, so the rotation
// order is preserved without scanning idle contexts.
func (s *Site) nextWithWork() *qctx {
	ctx, shared, ok := s.ready.pop(steppable)
	if !ok {
		return nil
	}
	s.noteTurn(shared)
	ctx.ready = false
	return ctx
}

// noteTurn counts a scheduling turn taken while another client waited
// (Stats.FairDeferred).
func (s *Site) noteTurn(shared bool) {
	if shared {
		s.met.FairDeferred.Inc()
	}
}

// afterEvent performs the on-drain duties whenever a context's working set
// is empty: flush local results to the originator, run the detector's idle
// hook, and — at the originator — check for global termination.
func (s *Site) afterEvent(ctx *qctx, out []wire.Envelope) ([]wire.Envelope, error) {
	if ctx.draining {
		return s.drainEvent(ctx, out), nil
	}
	if ctx.finished || ctx.eng.HasWork() {
		return out, nil
	}
	// Going quiescent: every queued dereference must be on the wire (with
	// its credit share) before the detector's idle hook reports this site
	// drained, or the termination weights would not sum to 1.
	out, err := s.flushAllQueues(ctx, out)
	if err != nil {
		return out, err
	}
	s.takeSpans(ctx)
	if ctx.isOrigin {
		// The originator accumulates its own results directly.
		ctx.collectLocal()
		ctx.det.OnIdle() // recovers the originator's own credit internally
		return s.checkDone(ctx, out)
	}

	// Participant: ship the flush to the originator with the credit going
	// home on the last result message, as the paper piggybacks credit on
	// results. Sites this participant skipped as unreachable ride along so
	// the originator can annotate the final answer. A drain with nothing for
	// the originator but work for others hands its credit on with the last
	// Deref instead, so no message goes home at all; a drain with neither
	// returns its credit in a Control.
	results, fetches := ctx.eng.TakeResults()
	msgs := s.buildResultMsgs(ctx, results, fetches)
	if unr := s.takeUnreachable(ctx); len(unr) > 0 {
		if len(msgs) == 0 {
			msgs = []*wire.Result{{QID: ctx.qid}}
		}
		msgs[len(msgs)-1].Unreachable = unr
	}
	if len(msgs) == 0 {
		if err := s.handOff(ctx, out); err != nil {
			return out, err
		}
	}
	// OnIdle returns at most one share, bound for the originator.
	for _, ret := range ctx.det.OnIdle() {
		if len(msgs) > 0 {
			msgs[len(msgs)-1].Token = ret.Token
			continue
		}
		s.met.ControlsSent.Inc()
		out = append(out, wire.Envelope{To: ret.To, Msg: &wire.Control{QID: ctx.qid, Token: ret.Token}})
	}
	for _, m := range msgs {
		s.met.ResultsSent.Inc()
		out = append(out, wire.Envelope{To: ctx.origin, Msg: m})
	}
	return out, nil
}

// handOff moves a draining participant's held credit onto the last Deref of
// this query in out, the envelopes of the current drain; the detector's idle
// hook then has nothing to return. It does nothing when out holds no such
// Deref.
func (s *Site) handOff(ctx *qctx, out []wire.Envelope) error {
	for i := len(out) - 1; i >= 0; i-- {
		d, ok := out[i].Msg.(*wire.Deref)
		if !ok || d.QID != ctx.qid {
			continue
		}
		merged, err := ctx.det.HandOff(d.Token)
		if err != nil {
			return err
		}
		d.Token = merged
		return nil
	}
	return nil
}

// buildResultMsgs packages a drain's results, applying the distributed-set
// threshold and the result batch size.
func (s *Site) buildResultMsgs(ctx *qctx, ids []object.ID, fetches []engine.Fetch) []*wire.Result {
	var fv []wire.FetchVal
	for _, f := range fetches {
		fv = append(fv, wire.FetchVal{Var: f.Var, From: f.From, Val: f.Val})
	}
	if len(ids) == 0 && len(fv) == 0 {
		return nil
	}
	if t := s.cfg.DistributedSetThreshold; t > 0 && len(ids) > t {
		ctx.retained = append(ctx.retained, ids...)
		return []*wire.Result{{
			QID: ctx.qid, Count: len(ids), Retained: true, Fetches: fv,
		}}
	}
	batch := s.cfg.ResultBatch
	if batch <= 0 || batch > len(ids) {
		batch = len(ids)
	}
	var msgs []*wire.Result
	for start := 0; start < len(ids); start += batch {
		end := start + batch
		if end > len(ids) {
			end = len(ids)
		}
		msgs = append(msgs, &wire.Result{
			QID: ctx.qid, IDs: ids[start:end], Count: end - start,
		})
	}
	if len(msgs) == 0 {
		// Fetches only.
		msgs = append(msgs, &wire.Result{QID: ctx.qid})
	}
	msgs[0].Fetches = fv
	return msgs
}

// checkDone finishes the query at the originator once the detector reports
// global termination: broadcast Finish, deliver Complete to the client. A
// query that terminated but skipped dead sites completes with the
// unreachable list and the Partial flag — the answer covers only the live
// portion of the database.
func (s *Site) checkDone(ctx *qctx, out []wire.Envelope) ([]wire.Envelope, error) {
	if ctx.finished || !ctx.det.Done() {
		return out, nil
	}
	unr := unreachableList(ctx)
	s.finishCtx(ctx, len(unr) > 0)
	s.met.Completed.Inc()
	// A partial answer always names its cause: sites in the unreachable set
	// were either skipped as dead or shed their share when the query's budget
	// ran out there (expireParticipant annotates the shedding site, and the
	// origin can terminate normally before its own clock crosses the line).
	reason := ""
	if len(unr) > 0 {
		reason = "peer down"
		for _, p := range unr {
			if !s.down[p] {
				reason = "deadline expired"
				break
			}
		}
	}
	retain := ctx.distributed
	// A query that never engaged a peer finishes without a Finish: every
	// context another site holds for it was created by a Deref or Seed,
	// whose chain starts at a send by this originator, and every such send
	// (flushQueue, admitSubmit's Seed loop) engages its destination. An
	// empty set proves no peer holds a context. Once any peer is engaged,
	// Finish goes to every live peer, since forwarded work may have reached
	// sites the originator never sent to.
	if len(ctx.engaged) > 0 {
		for _, peer := range s.cfg.Peers {
			if s.down[peer] {
				continue
			}
			out = append(out, wire.Envelope{To: peer, Msg: &wire.Finish{QID: ctx.qid, Retain: retain}})
		}
	}
	out = append(out, s.complete(ctx, len(unr) > 0, reason))
	if retain {
		// Keep the context: its results (all ids known at the originator)
		// become the originator's retained portion for follow-up seeding.
		// Everything else the finished query held — sent-cache, queues,
		// global marks, the engine's mark table — is dead weight now.
		ctx.retained = ctx.answer()
		s.releaseQueryResources(ctx)
	} else {
		s.dropCtx(ctx.qid)
	}
	return out, nil
}

// Abort cancels a query at its originator on the client's behalf: the client
// gets the partial answer immediately and peers cancel cooperatively, so all
// termination credit finds its way home (unlike the force-completion used
// for peer deaths, which must abandon credit parked at the corpse).
func (s *Site) Abort(qid wire.QueryID) []wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abortLocked(qid)
}

func (s *Site) abortLocked(qid wire.QueryID) []wire.Envelope {
	ctx, ok := s.contexts[qid]
	if !ok || !ctx.isOrigin || ctx.finished {
		return nil
	}
	s.met.Cancelled.Inc()
	out := s.cancelOrigin(ctx, "cancelled by client")
	// The cancel freed an admission slot. A drain error would be a protocol
	// violation on a freshly admitted context, which cannot happen.
	drained, _ := s.drainAdmission()
	return append(out, drained...)
}

// forceComplete ends an originator context without waiting for termination
// detection — the client timed out, or a peer holding credit died. The
// partial answer ships with whatever was collected, annotated with any
// unreachable sites; live peers are told to clean up.
func (s *Site) forceComplete(ctx *qctx) []wire.Envelope {
	// Sweep up whatever the local engine produced so far.
	ctx.collectLocal()
	s.finishCtx(ctx, true)
	s.met.Completed.Inc()
	var out []wire.Envelope
	for _, peer := range s.cfg.Peers {
		if s.down[peer] {
			continue
		}
		out = append(out, wire.Envelope{To: peer, Msg: &wire.Finish{QID: ctx.qid}})
	}
	out = append(out, s.complete(ctx, true, "peer down"))
	s.dropCtx(ctx.qid)
	return out
}

// complete builds the originator's answer to its client from everything
// ctx has collected.
func (s *Site) complete(ctx *qctx, partial bool, reason string) wire.Envelope {
	return wire.Envelope{To: ctx.client, Msg: &wire.Complete{
		QID:         ctx.qid,
		IDs:         ctx.answer(),
		Fetches:     ctx.fetches,
		Count:       ctx.count,
		Distributed: ctx.distributed,
		Partial:     partial,
		Unreachable: unreachableList(ctx),
		Reason:      reason,
	}}
}

// collectLocal folds the originator's own drained results and fetches into
// the accumulated answer.
func (ctx *qctx) collectLocal() {
	results, fetches := ctx.eng.TakeResults()
	ctx.results = append(ctx.results, results...)
	ctx.count += len(results)
	for _, f := range fetches {
		ctx.fetches = append(ctx.fetches, wire.FetchVal{Var: f.Var, From: f.From, Val: f.Val})
	}
}

// answer sorts and deduplicates the accumulated ids in place and returns
// them: the Complete's IDs, in ID.Compare order. The slice is
// clipped because the Complete (and ctx.retained) share it: an append by any
// holder, such as a straggling Result at a draining context, must copy
// rather than write into the array the others read.
func (ctx *qctx) answer() []object.ID {
	slices.SortFunc(ctx.results, object.ID.Compare)
	ctx.results = slices.Clip(slices.Compact(ctx.results))
	return ctx.results
}
