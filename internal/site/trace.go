package site

import (
	"sort"
	"sync"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/wire"
)

// noteRun folds one engine run into the context's per-filter aggregation.
// One span per (filter, drain interval) keeps tracing O(filters) per flush
// instead of O(objects).
func (ctx *qctx) noteRun(r *engine.Run, dur time.Duration) {
	if r.Steps == 0 {
		return
	}
	if ctx.stepAgg == nil {
		ctx.stepAgg = make(map[int]*spanAgg)
	}
	a := ctx.stepAgg[r.Start]
	if a == nil {
		a = &spanAgg{}
		ctx.stepAgg[r.Start] = a
		ctx.filters = append(ctx.filters, r.Start)
	}
	a.in += uint32(r.Steps)
	a.out += uint32(r.Out)
	a.dur += dur
}

// takeSpans drains the per-filter aggregation into freshly-numbered spans,
// in filter insertion order.
func (s *Site) takeSpans(ctx *qctx) []wire.Span {
	if len(ctx.filters) == 0 {
		return nil
	}
	spans := make([]wire.Span, 0, len(ctx.filters))
	for _, f := range ctx.filters {
		a := ctx.stepAgg[f]
		ctx.spanSeq++
		spans = append(spans, wire.Span{
			Site: s.cfg.ID, Seq: ctx.spanSeq, Hop: ctx.hop,
			Filter: uint32(f), In: a.in, Out: a.out,
			DurationUS: uint64(a.dur.Microseconds()),
		})
	}
	ctx.stepAgg = nil
	ctx.filters = nil
	return spans
}

// ingestSpans folds spans arriving from participants into the originator's
// timeline, dropping any (site, seq) pair already recorded — retransmitted
// or chaos-duplicated frames must not produce duplicate spans.
func (ctx *qctx) ingestSpans(spans []wire.Span) {
	for _, sp := range spans {
		k := spanKey{site: sp.Site, seq: sp.Seq}
		if ctx.seenSpans == nil {
			ctx.seenSpans = make(map[spanKey]struct{})
		}
		if _, dup := ctx.seenSpans[k]; dup {
			continue
		}
		ctx.seenSpans[k] = struct{}{}
		ctx.timeline = append(ctx.timeline, sp)
	}
}

// assembleTimeline sweeps any unflushed local spans into the originator's
// timeline and returns it sorted by (Hop, Site, Seq) — outward along the
// pointer chase, then by site, then in emission order.
func (s *Site) assembleTimeline(ctx *qctx) []wire.Span {
	ctx.timeline = append(ctx.timeline, s.takeSpans(ctx)...)
	ctx.timeline = append(ctx.timeline, ctx.pendingSpans...)
	ctx.pendingSpans = nil
	sort.Slice(ctx.timeline, func(i, j int) bool {
		a, b := ctx.timeline[i], ctx.timeline[j]
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Seq < b.Seq
	})
	return ctx.timeline
}

// recordTrace observes the query's time to quiescence and retains the
// timeline in the site's trace buffer.
func (s *Site) recordTrace(ctx *qctx, spans []wire.Span, partial bool) {
	elapsed := time.Since(ctx.created)
	s.met.quiescenceUS.ObserveDuration(elapsed)
	s.cfg.Traces.Add(TraceEntry{
		QID: ctx.qid, Body: ctx.body, Spans: spans,
		Partial: partial, Duration: elapsed,
	})
}

// TraceEntry is one completed query's assembled cross-site timeline, as held
// by the originating site.
type TraceEntry struct {
	QID  wire.QueryID `json:"qid"`
	Body string       `json:"body"`
	// Spans is the assembled timeline, sorted by (Hop, Site, Seq).
	Spans []wire.Span `json:"spans,omitempty"`
	// Partial mirrors the Complete message's Partial flag.
	Partial bool `json:"partial,omitempty"`
	// Duration is submission-to-completion wall time at the originator.
	Duration time.Duration `json:"duration_ns"`
}

// TraceBuffer retains the most recent completed-query timelines for the
// debug endpoint. It is safe for concurrent use and nil-safe (a nil buffer
// drops entries), mirroring the metrics instruments.
type TraceBuffer struct {
	mu      sync.Mutex
	entries []TraceEntry
	next    int
	full    bool
}

// DefaultTraceCap is the ring size used when a capacity is not specified.
const DefaultTraceCap = 64

// NewTraceBuffer returns a ring buffer holding the last capacity entries
// (DefaultTraceCap when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceBuffer{entries: make([]TraceEntry, capacity)}
}

// Add records one completed query, evicting the oldest entry when full.
func (b *TraceBuffer) Add(e TraceEntry) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries[b.next] = e
	b.next++
	if b.next == len(b.entries) {
		b.next = 0
		b.full = true
	}
}

// Entries returns the retained timelines, oldest first.
func (b *TraceBuffer) Entries() []TraceEntry {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []TraceEntry
	if b.full {
		out = append(out, b.entries[b.next:]...)
	}
	out = append(out, b.entries[:b.next]...)
	return out
}
