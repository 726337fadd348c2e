package site

import (
	"fmt"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/packed"
	"hyperfile/internal/wire"
)

// Deref batching (Config.DerefBatch > 0).
//
// The paper's dominant cost is per-message, not per-object: §5 charges
// ~50 ms per remote dereference message against ~8 ms to process an object,
// and the prototype already batches Result messages. Batching extends the
// same idea to the forward path: each query context keeps one outgoing
// queue per (destination, cursor) and coalesces remote references into
// Deref messages of up to DerefBatch object ids. A queue is flushed when it
// reaches the batch size, and afterEvent flushes every queue before the
// detector's idle hook runs — queued work must either be on the wire
// (carrying its credit share) or not exist by the time this site reports
// itself idle, or the termination weights would no longer sum to 1. Each
// batch message splits off a single credit share covering all of its
// entries.
//
// The sent-cache mirrors the receivers' mark tables on the sender: a
// receiver drops any (object, start) it has already processed for the
// query, so re-sending such a reference only buys the wire tax. The cache
// is keyed (query, object id, start) — query implicitly, since the cache
// lives in the qctx — and is released with the rest of the context state
// when the query finishes here, so it cannot outlive the query.

// sentKey identifies one dereference in the per-query index of the
// GlobalMarks oracle: the query is implicit.
type sentKey struct {
	id    object.ID
	start int
}

// batchKey groups queued remote references that may legally share one Deref
// message: same destination and same cursor (start + iteration counters).
type batchKey struct {
	to    object.SiteID
	start int
	iters string
}

// derefQueue is one per-(destination, cursor) outgoing queue.
type derefQueue struct {
	to    object.SiteID
	start int
	iters []int
	ids   []object.ID
}

// itersKey renders an iteration-counter slice as a map key. Iters are tiny
// (one small int per nesting level), so the string form is cheap and
// canonical.
func itersKey(iters []int) string {
	if len(iters) == 0 {
		return ""
	}
	return fmt.Sprint(iters)
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
func (ctx *qctx) queueFor(to object.SiteID, start int, iters []int) *derefQueue {
	k := batchKey{to: to, start: start, iters: itersKey(iters)}
	if q, ok := ctx.queues[k]; ok {
		return q
	}
	if ctx.queues == nil {
		ctx.queues = make(map[batchKey]*derefQueue)
	}
	q := &derefQueue{to: to, start: start, iters: append([]int(nil), iters...)}
	ctx.queues[k] = q
	ctx.qorder = append(ctx.qorder, q)
	return q
}

// emitDeref routes one remote reference out of the site: immediately as a
// single-id Deref when batching is off (the paper's exact protocol), or
// through the context's per-destination queue — flushing it if it reaches
// the batch size — when Config.DerefBatch > 0.
func (s *Site) emitDeref(ctx *qctx, ref engine.RemoteRef) ([]wire.Envelope, error) {
	if s.cfg.DerefBatch <= 0 {
		env, ok, err := s.sendDeref(ctx, ref)
		if err != nil || !ok {
			return nil, err
		}
		return []wire.Envelope{env}, nil
	}
	if ctx.sentBefore(ref) {
		s.stats.DerefsSuppressed++
		s.met.derefsSuppressed.Inc()
		return nil, nil
	}
	if s.cfg.GlobalMarks != nil && s.cfg.GlobalMarks.TestAndSet(ctx.qid, ref.ID, ref.Start) {
		return nil, nil
	}
	owner, _ := s.cfg.Router.Owner(ref.ID)
	q := ctx.queueFor(owner, ref.Start, ref.Iters)
	q.ids = append(q.ids, ref.ID)
	if len(q.ids) >= s.cfg.DerefBatch {
		return s.flushQueue(ctx, q)
	}
	return nil, nil
}

// flushQueue ships one queue as a single Deref message, splitting off one
// credit share for the whole batch. A queue whose destination has been
// declared dead is discarded and the peer recorded as unreachable — exactly
// as sendDeref suppresses single sends to dead peers, and likewise before
// OnSend so no credit is parked at a corpse.
func (s *Site) flushQueue(ctx *qctx, q *derefQueue) ([]wire.Envelope, error) {
	ids := q.ids
	q.ids = nil
	if len(ids) == 0 {
		return nil, nil
	}
	if s.down[q.to] {
		s.noteUnreachable(ctx, q.to)
		return nil, nil
	}
	tok, err := ctx.det.OnSend(q.to)
	if err != nil {
		return nil, err
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
	return []wire.Envelope{{To: q.to, Msg: &wire.Deref{
		QID: ctx.qid, Origin: ctx.origin, Body: ctx.body, BodyHash: ctx.fp.Bytes(),
		ObjIDs: ids, Start: q.start, Iters: q.iters, Token: tok,
		Hop: ctx.hop + 1, BudgetUS: ctx.budgetUS(time.Now()),
	}}}, nil
}

// flushAllQueues drains every non-empty queue in creation order. afterEvent
// calls it before the detector's idle hook so quiescence is never reported
// with work still parked locally.
func (s *Site) flushAllQueues(ctx *qctx) ([]wire.Envelope, error) {
	if len(ctx.qorder) == 0 {
		return nil, nil
	}
	var out []wire.Envelope
	for _, q := range ctx.qorder {
		envs, err := s.flushQueue(ctx, q)
		if err != nil {
			return out, err
		}
		out = append(out, envs...)
	}
	return out, nil
}

// releaseQueryResources frees the per-query state that must not outlive the
// query at this site: the sent-cache, the outgoing queues, and this query's
// slice of the shared GlobalMarks oracle. Called when the context is
// dropped, and when a finished context is retained for distributed-set
// reuse (a retained context answers seeds from ctx.retained only — it never
// dereferences again).
func (s *Site) releaseQueryResources(ctx *qctx) {
	ctx.queues = nil
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
