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

// Step advances one query context by one working-set item, round-robin over
// contexts with work (deficit round robin over clients with FairQuantum
// set). It returns the envelopes to deliver and reports false when no
// context has work. An error indicates a broken protocol invariant (e.g. a
// termination-credit underflow) and leaves the query wedged; callers should
// surface it.
//
// Step is safe to call from multiple worker goroutines: the pop pins the
// chosen context to this worker, the site lock is released while the
// context's engine evaluates filters, and all bookkeeping before and after
// the engine run happens under the lock. Parallel workers therefore step
// different contexts concurrently while each context keeps the paper's
// strict one-item-at-a-time execution order.
func (s *Site) Step() (StepOutcome, []wire.Envelope, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx := s.nextWithWork()
	if ctx == nil {
		return StepOutcome{}, nil, false, nil
	}
	// An expired context is not stepped: its remaining work is shed and the
	// query completes as an annotated partial answer. The deadline path runs
	// entirely under the site lock, so the pin is dropped for it — teardown
	// must see the context exactly as a sweep would.
	ctx.stepping = false
	if envs, did, err := s.checkDeadline(ctx); did || err != nil {
		if err == nil {
			var drained []wire.Envelope
			drained, err = s.drainAdmission()
			envs = append(envs, drained...)
		}
		return StepOutcome{Query: ctx.qid}, envs, true, err
	}
	// The engine runs outside the site lock: workers stepping different
	// contexts serialize only on site bookkeeping, not on filter evaluation.
	// The pin (re-set here, in the same critical section as the pop) keeps
	// every other worker off this context; the engine's own mutex orders the
	// step against message handlers touching the same engine.
	ctx.stepping = true
	s.mu.Unlock()
	start := time.Now()
	res, _ := ctx.eng.Step()
	stepDur := time.Since(start)
	s.mu.Lock()
	s.met.noteStep(&res)
	s.met.stepUS.ObserveDuration(stepDur)
	s.met.filterStep(res.Item.Start).Inc()
	s.met.clientStep(ctx.fairClient).Inc()
	ctx.noteStep(res, stepDur)
	outcome := StepOutcome{
		Query:       ctx.qid,
		Processed:   res.Processed,
		ResultAdded: res.Passed,
	}
	ctx.stepping = false
	if ctx.finished {
		// The context was cancelled or force-completed while the engine ran.
		// Its detector has already settled its credit, so this step's remote
		// references must not split any off (an OnSend now would break the
		// held + recovered + in-flight == 1 invariant); the references are
		// shed with the rest of the discarded working set. afterEvent still
		// runs so a draining context gets its kick.
		out, err := s.afterEvent(ctx, nil)
		if err == nil {
			var drained []wire.Envelope
			drained, err = s.drainAdmission()
			out = append(out, drained...)
		}
		return outcome, out, true, err
	}
	var out []wire.Envelope
	var err error
	for _, ref := range res.Remote {
		if out, err = s.emitDeref(ctx, ref, out); err != nil {
			return outcome, out, true, err
		}
	}
	// The hold: after FlushEvery of this context's steps with queues since
	// the last full flush, every queue ships, however long the local drain.
	if len(ctx.qorder) > 0 {
		if ctx.held++; ctx.held >= FlushEvery {
			if out, err = s.flushAllQueues(ctx, out); err != nil {
				return outcome, out, true, err
			}
		}
	}
	out, err = s.afterEvent(ctx, out)
	// Requeue at the tail while work remains: contexts with work take
	// strictly alternating turns (round-robin fairness).
	s.markReady(ctx)
	if err == nil {
		var drained []wire.Envelope
		drained, err = s.drainAdmission()
		out = append(out, drained...)
	}
	return outcome, out, true, err
}

// nextWithWork pops the first ready context that still has work and pins it
// to the calling worker (ctx.stepping) in the same critical section — the
// pop and the pin must be atomic, or work arriving between them could
// requeue the context and hand it to a second worker. Step re-queues the
// context at the tail afterwards, so the rotation order is preserved
// without scanning idle contexts.
func (s *Site) nextWithWork() *qctx {
	if s.fair != nil {
		return s.fairPop()
	}
	for len(s.ready) > 0 {
		qid := s.ready[0]
		s.ready = s.ready[1:]
		ctx := s.contexts[qid]
		if ctx == nil {
			s.readyStale--
			continue
		}
		ctx.ready = false
		if ctx.finished {
			s.readyStale--
			continue
		}
		if ctx.eng.HasWork() {
			ctx.stepping = true
			return ctx
		}
	}
	return nil
}

// afterEvent performs the on-drain duties whenever a context's working set
// is empty: flush local results to the originator, run the detector's idle
// hook, and — at the originator — check for global termination.
func (s *Site) afterEvent(ctx *qctx, out []wire.Envelope) ([]wire.Envelope, error) {
	if ctx.draining {
		return s.drainEvent(ctx, out), nil
	}
	// A pinned context is mid-step on another worker: it is not quiescent no
	// matter what its working set says (the in-flight step may spawn more
	// work or results), so drain duties wait for that worker's own
	// afterEvent call.
	if ctx.finished || ctx.stepping || ctx.eng.HasWork() {
		return out, nil
	}
	// Going quiescent: every queued dereference must be on the wire (with
	// its credit share) before the detector's idle hook reports this site
	// drained, or the termination weights would not sum to 1.
	out, err := s.flushAllQueues(ctx, out)
	if err != nil {
		return out, err
	}
	if ctx.isOrigin {
		// The originator accumulates its own results — and its own trace
		// spans — directly.
		ctx.collectLocal()
		ctx.timeline = append(ctx.timeline, s.takeSpans(ctx)...)
		ctx.det.OnIdle() // recovers the originator's own credit internally
		return s.checkDone(ctx, out)
	}

	// Participant: ship the flush to the originator with the credit going
	// home on the last result message, as the paper piggybacks credit on
	// results. Sites this participant skipped as unreachable ride along so
	// the originator can annotate the final answer. A drain with nothing for
	// the originator but work for others hands its credit on with the last
	// Deref instead, so no message goes home at all; a drain with neither
	// returns its credit in a Control. Trace spans follow the credit: on the
	// last result message, the hand-off Deref, or the Control — tracing
	// never adds a message of its own.
	ctx.pendingSpans = append(ctx.pendingSpans, s.takeSpans(ctx)...)
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
		s.stats.ControlsSent++
		s.met.controlsSent.Inc()
		ctl := &wire.Control{QID: ctx.qid, Token: ret.Token}
		if len(ctx.pendingSpans) > 0 {
			ctl.Spans = ctx.pendingSpans
			ctx.pendingSpans = nil
		}
		out = append(out, wire.Envelope{To: ret.To, Msg: ctl})
	}
	if len(msgs) > 0 {
		if len(ctx.pendingSpans) > 0 {
			msgs[len(msgs)-1].Spans = ctx.pendingSpans
			ctx.pendingSpans = nil
		}
		for _, m := range msgs {
			s.stats.ResultsSent++
			s.met.resultsSent.Inc()
			out = append(out, wire.Envelope{To: ctx.origin, Msg: m})
		}
	}
	return out, nil
}

// maxCarriedSpans bounds the trace spans one Deref carries onward. A drain
// holding more returns its credit and spans home in a Control instead, so a
// chain that never revisits the originator cannot grow its Derefs by a span
// per hop.
const maxCarriedSpans = 32

// handOff moves a draining participant's held credit, and its unsent spans,
// onto the last Deref of this query in out, the envelopes of the current
// drain; the detector's idle hook then has nothing to return. It does
// nothing when out holds no such Deref, or when the spans would exceed
// maxCarriedSpans.
func (s *Site) handOff(ctx *qctx, out []wire.Envelope) error {
	if len(ctx.pendingSpans) > maxCarriedSpans {
		return nil
	}
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
		d.Spans = ctx.pendingSpans
		ctx.pendingSpans = nil
		return nil
	}
	return nil
}

// buildResultMsgs packages a drain's results, applying the distributed-set
// threshold and the result batch size.
func (s *Site) buildResultMsgs(ctx *qctx, results object.IDSet, fetches []engine.Fetch) []*wire.Result {
	var fv []wire.FetchVal
	for _, f := range fetches {
		fv = append(fv, wire.FetchVal{Var: f.Var, From: f.From, Val: f.Val})
	}
	if len(results) == 0 && len(fv) == 0 {
		return nil
	}
	if t := s.cfg.DistributedSetThreshold; t > 0 && len(results) > t {
		ctx.retained = append(ctx.retained, results.Sorted()...)
		return []*wire.Result{{
			QID: ctx.qid, Count: len(results), Retained: true, Fetches: fv,
		}}
	}
	ids := results.Sorted()
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
	s.finishCtx(ctx)
	s.stats.Completed++
	s.met.completed.Inc()
	unr := unreachableList(ctx)
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
	for _, peer := range s.cfg.Peers {
		if s.down[peer] {
			continue
		}
		out = append(out, wire.Envelope{To: peer, Msg: &wire.Finish{QID: ctx.qid, Retain: retain}})
	}
	spans := s.assembleTimeline(ctx)
	s.recordTrace(ctx, spans, len(unr) > 0)
	ids := ctx.answer()
	out = append(out, wire.Envelope{To: ctx.client, Msg: &wire.Complete{
		QID:         ctx.qid,
		IDs:         ids,
		Fetches:     ctx.fetches,
		Count:       ctx.count,
		Distributed: ctx.distributed,
		Partial:     len(unr) > 0,
		Unreachable: unr,
		Spans:       spans,
		Reason:      reason,
	}})
	if retain {
		// Keep the context: its results (all ids known at the originator)
		// become the originator's retained portion for follow-up seeding.
		// Everything else the finished query held — sent-cache, queues,
		// global marks, the engine's mark table — is dead weight now.
		ctx.retained = ids
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
	s.stats.Cancelled++
	s.met.cancelled.Inc()
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
	s.finishCtx(ctx)
	s.stats.Completed++
	s.met.completed.Inc()
	var out []wire.Envelope
	for _, peer := range s.cfg.Peers {
		if s.down[peer] {
			continue
		}
		out = append(out, wire.Envelope{To: peer, Msg: &wire.Finish{QID: ctx.qid}})
	}
	// The timeline is whatever arrived before the abort — a partial trace
	// is better than none, exactly like the partial answer it accompanies.
	spans := s.assembleTimeline(ctx)
	s.recordTrace(ctx, spans, true)
	out = append(out, wire.Envelope{To: ctx.client, Msg: &wire.Complete{
		QID:         ctx.qid,
		IDs:         ctx.answer(),
		Fetches:     ctx.fetches,
		Count:       ctx.count,
		Distributed: ctx.distributed,
		Partial:     true,
		Unreachable: unreachableList(ctx),
		Spans:       spans,
		Reason:      "peer down",
	}})
	s.dropCtx(ctx.qid)
	return out
}

// collectLocal folds the originator's own drained results and fetches into
// the accumulated answer.
func (ctx *qctx) collectLocal() {
	results, fetches := ctx.eng.TakeResults()
	for id := range results {
		ctx.results = append(ctx.results, id)
	}
	ctx.count += len(results)
	for _, f := range fetches {
		ctx.fetches = append(ctx.fetches, wire.FetchVal{Var: f.Var, From: f.From, Val: f.Val})
	}
}

// answer sorts and deduplicates the accumulated ids in place and returns
// them: the Complete's IDs, in the order IDSet.Sorted gives. The slice is
// clipped because the Complete (and ctx.retained) share it: an append by any
// holder, such as a straggling Result at a draining context, must copy
// rather than write into the array the others read.
func (ctx *qctx) answer() []object.ID {
	slices.SortFunc(ctx.results, object.ID.Compare)
	ctx.results = slices.Clip(slices.Compact(ctx.results))
	return ctx.results
}
