package site

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/object"
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

// takeSpans drains the per-filter aggregation onto the context's timeline as
// freshly-numbered spans, in filter insertion order.
func (s *Site) takeSpans(ctx *qctx) {
	for _, f := range ctx.filters {
		a := ctx.stepAgg[f]
		ctx.spanSeq++
		ctx.timeline = append(ctx.timeline, Span{
			Site: s.cfg.ID, Seq: ctx.spanSeq, Hop: ctx.hop,
			Filter: uint32(f), In: a.in, Out: a.out,
			DurationUS: uint64(a.dur.Microseconds()),
		})
	}
	clear(ctx.stepAgg)
	ctx.filters = ctx.filters[:0]
}

// recordTrace retains the spans this site emitted for ctx's query, in
// emission order, as one entry of the site's trace ring. A site without a
// ring records nothing.
func (s *Site) recordTrace(ctx *qctx, partial bool, elapsed time.Duration) {
	if s.cfg.Traces == nil {
		return
	}
	s.takeSpans(ctx)
	s.cfg.Traces.Add(TraceEntry{
		QID: ctx.qid, Body: ctx.body, Spans: ctx.timeline,
		Partial: partial, Duration: elapsed,
	})
	ctx.timeline = nil
}

// MergeTraces assembles cross-site timelines from the trace rings of several
// sites, each keyed by the site that kept it. A query's entries merge into
// one: their spans concatenated and sorted by (Hop, Site, Seq) — outward
// along the pointer chase, then by site, then in emission order — with Body,
// Partial and Duration taken from the originator's entry, or from the first
// entry when no ring holds the originator's. Queries keep the order in which
// they first appear, rings taken in ascending site order, so merging one
// ring returns its entries as they are.
func MergeTraces(rings map[object.SiteID][]TraceEntry) []TraceEntry {
	sites := make([]object.SiteID, 0, len(rings))
	for id := range rings {
		sites = append(sites, id)
	}
	slices.Sort(sites)
	var out []TraceEntry
	at := make(map[wire.QueryID]int)
	for _, id := range sites {
		for _, e := range rings[id] {
			i, seen := at[e.QID]
			if !seen {
				i = len(out)
				at[e.QID] = i
				out = append(out, TraceEntry{QID: e.QID, Body: e.Body, Partial: e.Partial, Duration: e.Duration})
			} else if id == e.QID.Origin {
				out[i].Body, out[i].Partial, out[i].Duration = e.Body, e.Partial, e.Duration
			}
			out[i].Spans = append(out[i].Spans, e.Spans...)
		}
	}
	for _, e := range out {
		slices.SortFunc(e.Spans, func(a, b Span) int {
			if c := cmp.Compare(a.Hop, b.Hop); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Site, b.Site); c != 0 {
				return c
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
	}
	return out
}

// Span is one trace record: while executing a query, a site aggregates the
// objects it processed per filter step over a drain interval and emits one
// span per (filter, interval). No message carries a span: each site keeps its
// own in its trace ring, and whoever reads the rings merges them into one
// per-query timeline (MergeTraces).
type Span struct {
	// Site is where the work happened.
	Site object.SiteID
	// Seq orders spans per (site, query), in emission order.
	Seq uint64
	// Hop is the remote-dereference depth at which this site joined the
	// query (0 = originator), so a timeline shows how far the pointer chase
	// travelled.
	Hop uint32
	// Filter is the index of the filter step the objects were processed
	// under (the paper's per-filter working sets).
	Filter uint32
	// In and Out count objects entering the step and passing it.
	In, Out uint32
	// DurationUS is the wall time spent in this span's steps, microseconds.
	DurationUS uint64
}

// TraceEntry is one finished query's timeline as one site kept it: the spans
// that site emitted, or, out of MergeTraces, every site's.
type TraceEntry struct {
	QID  wire.QueryID `json:"qid"`
	Body string       `json:"body"`
	// Spans is the timeline, sorted by (Hop, Site, Seq).
	Spans []Span `json:"spans,omitempty"`
	// Partial mirrors the Complete message's Partial flag at the originator;
	// a participant's entry leaves it false.
	Partial bool `json:"partial,omitempty"`
	// Duration is submission-to-completion wall time at the originator, and
	// joining-to-Finish wall time at a participant.
	Duration time.Duration `json:"duration_ns"`
}

// TraceBuffer retains the most recent finished-query timelines for the
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
