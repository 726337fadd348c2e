package site

// Overload protection (DESIGN.md §10).
//
// Three cooperating mechanisms keep a site responsive under load spikes and
// slow peers, degrading answers instead of hanging clients:
//
//   - Admission control: Config.MaxInflight bounds unfinished contexts. A
//     Submit beyond the bound waits in a bounded queue or is refused with
//     wire.Reject. Work messages are always accepted — refusing a Deref
//     would strand the termination credit it carries.
//
//   - Deadline propagation: an originator derives a deadline from the
//     Submit's budget (or Config.QueryDeadline) and stamps the remaining
//     budget on every outgoing Deref/Seed; participants derive their own
//     deadline from it, so the budget shrinks at every hop.
//
//   - Cooperative cancellation: expiry or a client abort completes the
//     query immediately as an annotated partial answer and fans wire.Cancel
//     out to the peers. Every site returns all held termination credit when
//     it tears its context down, and work that arrives after the teardown
//     bounces its token back to the originator — so the credit invariant
//     (held + recovered + in-flight == 1) survives cancellation and
//     termination.Audit stays exact. The originator keeps a finished
//     "draining" context until the credit is home, bounded by
//     cancelDrainGrace.

import (
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/termination"
	"hyperfile/internal/wire"
)

// cancelDrainGrace bounds how long a cancelled or expired context may linger
// to collect outstanding termination credit. A drain that cannot complete —
// credit parked at a peer that died mid-cancel — is abandoned by the next
// ExpireDeadlines sweep after the grace.
const cancelDrainGrace = 5 * time.Second

// pendingSubmit is one Submit waiting in the admission queue, with the
// absolute deadline derived when it arrived — queue wait counts against the
// client's budget.
type pendingSubmit struct {
	m        *wire.Submit
	deadline time.Time
}

// submitDeadline derives the absolute deadline for a Submit: the client's
// budget when it carries one, the configured default otherwise, zero (no
// deadline) when neither applies.
func (s *Site) submitDeadline(m *wire.Submit, now time.Time) time.Time {
	if m.BudgetUS > 0 {
		return now.Add(time.Duration(m.BudgetUS) * time.Microsecond)
	}
	if s.cfg.QueryDeadline > 0 {
		return now.Add(s.cfg.QueryDeadline)
	}
	return time.Time{}
}

// atCapacity reports whether admission control refuses new originator
// contexts right now.
func (s *Site) atCapacity() bool {
	return s.cfg.MaxInflight > 0 && s.inflight >= s.cfg.MaxInflight
}

// reject refuses a Submit with a typed Reject to the client.
func (s *Site) reject(m *wire.Submit, reason string) wire.Envelope {
	s.stats.Rejected++
	s.met.rejected.Inc()
	return wire.Envelope{To: m.Client, Msg: &wire.Reject{QID: m.QID, Reason: reason}}
}

// drainAdmission admits queued Submits while capacity allows, shedding the
// ones whose deadline passed while they waited. Called after every event
// that may have released an inflight slot.
func (s *Site) drainAdmission() ([]wire.Envelope, error) {
	if len(s.admitQ) == 0 {
		return nil, nil
	}
	if s.fair != nil {
		return s.drainAdmissionFair()
	}
	var out []wire.Envelope
	now := time.Now()
	for len(s.admitQ) > 0 {
		p := s.admitQ[0]
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.admitQ = s.admitQ[1:]
			s.stats.Shed++
			s.met.shed.Inc()
			out = append(out, wire.Envelope{To: p.m.Client, Msg: &wire.Reject{
				QID: p.m.QID, Reason: "shed: deadline expired in admission queue",
			}})
			continue
		}
		if s.atCapacity() {
			break
		}
		s.admitQ = s.admitQ[1:]
		envs, err := s.admitSubmit(p.m, p.deadline)
		out = append(out, envs...)
		if err != nil {
			s.met.admissionQueue.Set(int64(len(s.admitQ)))
			return out, err
		}
	}
	s.met.admissionQueue.Set(int64(len(s.admitQ)))
	return out, nil
}

// drainAdmissionFair admits queued Submits under deficit round robin over
// client ids (Config.FairQuantum): one greedy client's burst of queued
// Submits no longer starves the clients behind it. Expired entries are shed
// wherever they sit — the next served entry need not be the head, so
// head-only shedding would let dead entries linger mid-queue.
func (s *Site) drainAdmissionFair() ([]wire.Envelope, error) {
	var out []wire.Envelope
	now := time.Now()
	kept := s.admitQ[:0]
	for _, p := range s.admitQ {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.stats.Shed++
			s.met.shed.Inc()
			out = append(out, wire.Envelope{To: p.m.Client, Msg: &wire.Reject{
				QID: p.m.QID, Reason: "shed: deadline expired in admission queue",
			}})
			continue
		}
		kept = append(kept, p)
	}
	s.admitQ = kept
	for len(s.admitQ) > 0 && !s.atCapacity() {
		i := s.nextFairAdmit()
		p := s.admitQ[i]
		s.admitQ = append(s.admitQ[:i], s.admitQ[i+1:]...)
		envs, err := s.admitSubmit(p.m, p.deadline)
		out = append(out, envs...)
		if err != nil {
			s.met.admissionQueue.Set(int64(len(s.admitQ)))
			return out, err
		}
	}
	s.met.admissionQueue.Set(int64(len(s.admitQ)))
	return out, nil
}

// expired reports whether ctx's budget has run out.
func expired(ctx *qctx, now time.Time) bool {
	return !ctx.deadline.IsZero() && now.After(ctx.deadline)
}

// budgetUS returns ctx's remaining budget in microseconds for stamping on
// outgoing work messages; zero when the context has no deadline. An
// already-expired context propagates the minimum budget, so the receiver
// sheds the work immediately instead of treating it as unbounded.
func (ctx *qctx) budgetUS(now time.Time) uint64 {
	if ctx.deadline.IsZero() {
		return 0
	}
	rem := ctx.deadline.Sub(now).Microseconds()
	if rem < 1 {
		return 1
	}
	return uint64(rem)
}

// noteBudget tightens a participant context's deadline from an incoming
// work message's budget. Budgets only shrink along dereference hops, so the
// earliest deadline seen is authoritative; the originator's own deadline is
// never adjusted by incoming work.
func (ctx *qctx) noteBudget(budgetUS uint64, now time.Time) {
	if budgetUS == 0 || ctx.isOrigin {
		return
	}
	nd := now.Add(time.Duration(budgetUS) * time.Microsecond)
	if ctx.deadline.IsZero() || nd.Before(ctx.deadline) {
		ctx.deadline = nd
	}
}

// checkDeadline expires ctx if its budget ran out, reporting whether it did
// (an expired context must not be stepped or given work). A context with no
// deadline returns before reading the clock: this runs on every step.
func (s *Site) checkDeadline(ctx *qctx) ([]wire.Envelope, bool, error) {
	if ctx.finished || ctx.deadline.IsZero() || !expired(ctx, time.Now()) {
		return nil, false, nil
	}
	if ctx.isOrigin {
		s.stats.DeadlineExpired++
		s.met.deadlineExpired.Inc()
		return s.cancelOrigin(ctx, "deadline expired"), true, nil
	}
	envs, err := s.expireParticipant(ctx)
	return envs, true, err
}

// cancelOrigin ends a query at its originator cooperatively: the client gets
// the partial answer immediately, every live peer is told to cancel, and the
// context stays behind in the draining state until the outstanding
// termination credit is home. Unflushed deref queues are simply discarded —
// credit is split at flush time, so they hold none.
func (s *Site) cancelOrigin(ctx *qctx, reason string) []wire.Envelope {
	if ctx.finished {
		return nil
	}
	ctx.collectLocal()
	ctx.eng.DiscardWork()
	ctx.qorder = nil
	ctx.timeline = append(ctx.timeline, s.takeSpans(ctx)...)
	s.finishCtx(ctx)
	s.stats.Completed++
	s.met.completed.Inc()
	ctx.det.OnIdle() // banks the originator's own held credit
	var out []wire.Envelope
	for _, peer := range s.cfg.Peers {
		if s.down[peer] {
			continue
		}
		out = append(out, wire.Envelope{To: peer, Msg: &wire.Cancel{QID: ctx.qid, Reason: reason}})
	}
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
		Reason:      reason,
	}})
	if ctx.det.Done() {
		s.dropCtx(ctx.qid)
	} else {
		ctx.draining = true
		ctx.drainUntil = time.Now().Add(cancelDrainGrace)
	}
	return out
}

// cancelParticipant tears down a participant context on wire.Cancel: the
// working set and local results are discarded (the originator has already
// answered its client) and all held termination credit returns immediately.
// The context is dropped as soon as the detector holds nothing — instantly
// for the weighted algorithm; Dijkstra-Scholten participants with
// unacknowledged messages of their own drain first.
func (s *Site) cancelParticipant(ctx *qctx) []wire.Envelope {
	s.stats.Cancelled++
	s.met.cancelled.Inc()
	ctx.eng.DiscardWork()
	ctx.eng.TakeResults()
	ctx.qorder = nil
	s.finishCtx(ctx)
	out := s.controlEnvelopes(ctx, ctx.det.OnIdle())
	if termination.Quiet(ctx.det) {
		s.dropCtx(ctx.qid)
	} else {
		ctx.draining = true
		ctx.drainUntil = time.Now().Add(cancelDrainGrace)
	}
	return out
}

// expireParticipant sheds a participant context whose budget ran out: the
// results accumulated so far ship to the originator annotated with *this*
// site in the unreachable set — the final answer names the site that shed
// work — along with all held credit, and the context is torn down.
func (s *Site) expireParticipant(ctx *qctx) ([]wire.Envelope, error) {
	s.stats.DeadlineExpired++
	s.met.deadlineExpired.Inc()
	ctx.eng.DiscardWork()
	ctx.qorder = nil
	s.noteUnreachable(ctx, s.cfg.ID)
	out, err := s.afterEvent(ctx, nil)
	if err != nil {
		return out, err
	}
	s.finishCtx(ctx)
	if termination.Quiet(ctx.det) {
		s.dropCtx(ctx.qid)
	} else {
		ctx.draining = true
		ctx.drainUntil = time.Now().Add(cancelDrainGrace)
	}
	return out, nil
}

// handleCancel processes a wire.Cancel: from the originator at participants,
// or from the client at the originator (an abort). An unknown query is
// tombstoned so work still in flight toward this site cannot resurrect it
// after the cancel.
func (s *Site) handleCancel(m *wire.Cancel) ([]wire.Envelope, error) {
	for i, p := range s.admitQ {
		if p.m.QID == m.QID {
			s.admitQ = append(s.admitQ[:i], s.admitQ[i+1:]...)
			s.met.admissionQueue.Set(int64(len(s.admitQ)))
			s.stats.Cancelled++
			s.met.cancelled.Inc()
			return []wire.Envelope{{To: p.m.Client, Msg: &wire.Reject{
				QID: m.QID, Reason: "cancelled before admission",
			}}}, nil
		}
	}
	ctx, ok := s.contexts[m.QID]
	if !ok {
		s.tombstone(m.QID)
		return nil, nil
	}
	if ctx.finished {
		return nil, nil
	}
	if ctx.isOrigin {
		s.stats.Cancelled++
		s.met.cancelled.Inc()
		reason := m.Reason
		if reason == "" {
			reason = "cancelled"
		}
		return s.cancelOrigin(ctx, reason), nil
	}
	return s.cancelParticipant(ctx), nil
}

// bounceToken handles the termination payload of a work message that arrived
// for a tombstoned query: the weighted algorithm's credit share is returned
// to the originator unchanged (if it is draining a cancelled query, these
// returns are what let the drain complete; if it is long gone, it drops the
// stray Control). Dijkstra-Scholten work carries no token — the sender is
// acknowledged instead, shrinking its deficit.
func (s *Site) bounceToken(qid wire.QueryID, from, origin object.SiteID, token []byte) []wire.Envelope {
	if s.cfg.TermMode == termination.DijkstraScholten {
		if from == s.cfg.ID {
			// lint:ignore creditflow Dijkstra-Scholten work carries no weighted token; a self-addressed stray needs no ack either
			return nil
		}
		s.stats.ControlsSent++
		s.met.controlsSent.Inc()
		// lint:ignore creditflow Dijkstra-Scholten work carries no weighted token; the ack Control below returns the credit in deficit form
		return []wire.Envelope{{To: from, Msg: &wire.Control{QID: qid}}}
	}
	if len(token) == 0 {
		return nil
	}
	s.stats.ControlsSent++
	s.met.controlsSent.Inc()
	return []wire.Envelope{{To: origin, Msg: &wire.Control{QID: qid, Token: token}}}
}

// drainEvent advances a draining context after a message event: newly
// ingested credit is returned (participants) or banked (originator), and
// the context is dropped once the detector holds nothing more.
func (s *Site) drainEvent(ctx *qctx, out []wire.Envelope) []wire.Envelope {
	out = append(out, s.controlEnvelopes(ctx, ctx.det.OnIdle())...)
	if ctx.isOrigin {
		if ctx.det.Done() {
			s.dropCtx(ctx.qid)
		}
		return out
	}
	if termination.Quiet(ctx.det) {
		s.dropCtx(ctx.qid)
	}
	return out
}

// ExpireDeadlines sweeps every context and queued Submit against the clock:
// expired originators cancel (partial answer, Cancel fan-out), expired
// participants shed (results + credit to the originator), queued Submits
// past their deadline are shed with a Reject, and draining contexts whose
// grace ran out are abandoned. Runners with real clocks call this
// periodically — the TCP server from a sweeper goroutine, LocalCluster when
// overload options are set; the simulator's virtual time never expires
// anything.
func (s *Site) ExpireDeadlines() ([]wire.Envelope, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var out []wire.Envelope
	qids := append([]wire.QueryID(nil), s.order...)
	for _, qid := range qids {
		ctx := s.contexts[qid]
		if ctx == nil {
			continue
		}
		if ctx.draining {
			if now.After(ctx.drainUntil) {
				// The drain cannot complete — credit or acknowledgements
				// parked at a peer that died mid-cancel. Abandon it rather
				// than hold the context forever.
				s.dropCtx(qid)
			}
			continue
		}
		if ctx.finished || !expired(ctx, now) {
			continue
		}
		if ctx.isOrigin {
			s.stats.DeadlineExpired++
			s.met.deadlineExpired.Inc()
			out = append(out, s.cancelOrigin(ctx, "deadline expired")...)
		} else {
			envs, err := s.expireParticipant(ctx)
			out = append(out, envs...)
			if err != nil {
				return out, err
			}
		}
	}
	kept := s.admitQ[:0]
	for _, p := range s.admitQ {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.stats.Shed++
			s.met.shed.Inc()
			out = append(out, wire.Envelope{To: p.m.Client, Msg: &wire.Reject{
				QID: p.m.QID, Reason: "shed: deadline expired in admission queue",
			}})
			continue
		}
		kept = append(kept, p)
	}
	s.admitQ = kept
	s.met.admissionQueue.Set(int64(len(s.admitQ)))
	drained, err := s.drainAdmission()
	return append(out, drained...), err
}
