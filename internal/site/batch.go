package site

import (
	"slices"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/wire"
)

// Deref batching.
//
// The paper's dominant cost is per-message, not per-object: §5 charges
// ~50 ms per remote dereference message against ~8 ms to process an object,
// and the prototype already batches Result messages. Batching extends the
// same idea to the forward path: each query context keeps one outgoing
// queue per (destination, cursor) and coalesces remote references into
// Deref messages of up to Config.DerefBatch object ids. A queue is flushed
// on the first of three triggers:
//   - cap: it reaches the batch size;
//   - hold: its context has taken FlushEvery engine steps with queues since
//     the last full flush, and every queue of the context ships, so no
//     remote work waits behind a long local drain;
//   - drain: afterEvent flushes every queue before the detector's idle hook
//     runs — queued work must either be on the wire (carrying its credit
//     share) or not exist by the time this site reports itself idle, or the
//     termination weights would no longer sum to 1.
//
// Each batch message splits off a single credit share covering all of its
// entries. Under Unbatched every reference is a one-id queue flushed at
// once: the paper's protocol, through the same emit path.
//
// The sent-cache mirrors the receivers' mark tables on the sender: a
// receiver drops any (object, start) it has already processed for the
// query, so re-sending such a reference only buys the wire tax. The cache
// is keyed (query, object id, start) — query implicitly, since the cache
// lives in the qctx — and is released with the rest of the context state
// when the query finishes here, so it cannot outlive the query.

// DerefBatchSize is the production batch size, what a zero
// Config.DerefBatch means: at most this many object ids per outgoing Deref
// message.
const DerefBatchSize = 16

// Unbatched, as Config.DerefBatch, selects the paper's protocol: one object
// id per Deref message, sent at once, with no sent-cache. The experiments
// that reproduce the paper's tables run it. Any negative value means the
// same.
const Unbatched = -1

// FlushEvery is how long outbound work may wait at a site, counted in loop
// iterations. It bounds a transport burst — the server flushes its queued
// frames after this many messages handled or steps taken — and a context's
// deref hold: queued remote references ship after at most this many of the
// context's engine steps.
const FlushEvery = 16

// sentKey identifies one dereference in the per-query index of the
// GlobalMarks oracle: the query is implicit.
type sentKey struct {
	id    object.ID
	start int
}

// derefQueue is one per-(destination, cursor) outgoing queue: references
// that may legally share one Deref message.
type derefQueue struct {
	to    object.SiteID
	start int
	iters []int
	ids   []object.ID
}

// sentBefore tests-and-sets the sent-cache for ref: a pooled packed-key set
// holding exactly the (object id, start) pairs this context has shipped,
// drawn on first use and released with the rest of the query's resources.
func (ctx *qctx) sentBefore(ref engine.RemoteRef) bool {
	if ctx.sent == nil {
		ctx.sent = packed.Get()
	}
	hi, lo := packed.IDKey(ref.ID, ref.Start)
	return ctx.sent.TestAndSet(hi, lo)
}

// queueFor returns (creating if needed) the queue for a destination/cursor.
// A context holds only the handful of queues of its current burst, so a
// linear scan beats a map. The returned pointer is valid until the next
// queueFor or full flush.
func (ctx *qctx) queueFor(to object.SiteID, start int, iters []int) *derefQueue {
	for i := range ctx.qorder {
		q := &ctx.qorder[i]
		if q.to == to && q.start == start && slices.Equal(q.iters, iters) {
			return q
		}
	}
	ctx.qorder = append(ctx.qorder, derefQueue{to: to, start: start, iters: iters})
	return &ctx.qorder[len(ctx.qorder)-1]
}

// emitDeref routes one remote reference out of the site through the
// context's per-destination queue, flushing the queue if it reaches the
// batch size, and appends any Deref it ships to out. Under Unbatched the
// queue's cap is one and the sent-cache is skipped: the paper's exact
// protocol. With the global-mark-table ablation active, a dereference anyone
// already sent is suppressed.
func (s *Site) emitDeref(ctx *qctx, ref engine.RemoteRef, out []wire.Envelope) ([]wire.Envelope, error) {
	if s.cfg.DerefBatch > 0 && ctx.sentBefore(ref) {
		s.stats.DerefsSuppressed++
		s.met.derefsSuppressed.Inc()
		return out, nil
	}
	if s.cfg.GlobalMarks != nil && s.cfg.GlobalMarks.TestAndSet(ctx.qid, ref.ID, ref.Start) {
		return out, nil
	}
	owner, _ := s.cfg.Router.Owner(ref.ID)
	if s.cfg.DerefBatch <= 0 {
		// A one-id queue of its own: nothing else could join it.
		return s.flushQueue(ctx, &derefQueue{to: owner, start: ref.Start, iters: ref.Iters, ids: []object.ID{ref.ID}}, out)
	}
	q := ctx.queueFor(owner, ref.Start, ref.Iters)
	q.ids = append(q.ids, ref.ID)
	if len(q.ids) >= s.cfg.DerefBatch {
		return s.flushQueue(ctx, q, out)
	}
	return out, nil
}

// flushQueue ships one queue as a single Deref message appended to out,
// splitting off one credit share for the whole batch. A queue whose
// destination has been declared dead is discarded and the peer recorded as
// unreachable — before OnSend, so no credit is parked at a corpse — and the
// final answer is annotated.
func (s *Site) flushQueue(ctx *qctx, q *derefQueue, out []wire.Envelope) ([]wire.Envelope, error) {
	ids := q.ids
	q.ids = nil
	if len(ids) == 0 {
		return out, nil
	}
	if s.down[q.to] {
		s.noteUnreachable(ctx, q.to)
		return out, nil
	}
	tok, err := ctx.det.OnSend(q.to)
	if err != nil {
		return out, err
	}
	if ctx.isOrigin {
		ctx.engage(q.to)
	}
	s.stats.DerefsSent++
	s.stats.DerefEntriesSent += len(ids)
	s.met.derefsSent.Inc()
	s.met.derefEntriesSent.Add(uint64(len(ids)))
	s.met.batchOccupancy.Observe(uint64(len(ids)))
	if len(ids) > 1 {
		s.stats.DerefsBatched++
		s.met.derefsBatched.Inc()
	}
	return append(out, wire.Envelope{To: q.to, Msg: &wire.Deref{
		QID: ctx.qid, Origin: ctx.origin, Body: ctx.body, BodyHash: ctx.fp.Bytes(),
		ObjIDs: ids, Start: q.start, Iters: q.iters, Token: tok,
		Hop: ctx.hop + 1, BudgetUS: ctx.budgetUS(time.Now()),
	}}), nil
}

// flushAllQueues ships every non-empty queue in creation order, appending the
// Derefs to out, and empties the queue list while keeping its capacity for
// the next burst. afterEvent calls it before the detector's idle hook so
// quiescence is never reported with work still parked locally; Step calls it
// when the context's hold runs out.
func (s *Site) flushAllQueues(ctx *qctx, out []wire.Envelope) ([]wire.Envelope, error) {
	for i := range ctx.qorder {
		var err error
		if out, err = s.flushQueue(ctx, &ctx.qorder[i], out); err != nil {
			return out, err
		}
	}
	clear(ctx.qorder) // drop the shipped iters the backing array still references
	ctx.qorder = ctx.qorder[:0]
	ctx.held = 0
	return out, nil
}

// releaseQueryResources frees the per-query state that must not outlive the
// query at this site: the sent-cache, the outgoing queues, and this query's
// slice of the shared GlobalMarks oracle. Called when the context is
// dropped, and when a finished context is retained for distributed-set
// reuse (a retained context answers seeds from ctx.retained only — it never
// dereferences again).
func (s *Site) releaseQueryResources(ctx *qctx) {
	ctx.qorder = nil
	if ctx.sent != nil {
		packed.Put(ctx.sent)
		ctx.sent = nil
	}
	// Return the engine's pooled storage (working-set backing, binding
	// environment, mark table) on the same three paths that release the
	// sent-cache: finish, force-complete, retain.
	ctx.eng.ReleaseScratch()
	if s.cfg.GlobalMarks != nil {
		s.cfg.GlobalMarks.Release(ctx.qid)
	}
	// Unpin the context's plan-cache entry. Clearing planPinned makes the
	// release idempotent — a retained context releases here and again when
	// finally dropped.
	if ctx.planPinned {
		s.plans.Release(ctx.fp, ctx.body)
		ctx.planPinned = false
	}
}
