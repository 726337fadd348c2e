package engine

import (
	"fmt"

	"hyperfile/internal/object"
)

// TraceAction classifies a trace event.
type TraceAction uint8

const (
	// TraceDequeued: an item was taken from the working set.
	TraceDequeued TraceAction = iota
	// TraceSkipped: the mark table suppressed a duplicate.
	TraceSkipped
	// TraceMissing: the object was not in the local store.
	TraceMissing
	// TracePassedSelect / TraceFailedSelect: selection outcome.
	TracePassedSelect
	TraceFailedSelect
	// TraceDereferenced: pointers were followed (Local/Remote counts set).
	TraceDereferenced
	// TraceLoopedBack: an iterator routed the object back to its body.
	TraceLoopedBack
	// TraceExitedIter: the object passed beyond an iterator.
	TraceExitedIter
	// TraceResult: the object passed every filter.
	TraceResult
)

var traceNames = [...]string{
	TraceDequeued: "dequeued", TraceSkipped: "skipped-duplicate",
	TraceMissing: "missing", TracePassedSelect: "select-pass",
	TraceFailedSelect: "select-fail", TraceDereferenced: "dereferenced",
	TraceLoopedBack: "loop-back", TraceExitedIter: "iter-exit",
	TraceResult: "result",
}

// String names the action.
func (a TraceAction) String() string {
	if int(a) < len(traceNames) {
		return traceNames[a]
	}
	return fmt.Sprintf("action(%d)", a)
}

// TraceEvent is one step of query processing, for debugging queries that
// return fewer objects than expected (see docs/QUERYLANG.md).
type TraceEvent struct {
	ID     object.ID
	Filter int // filter index; -1 for dequeue-stage events
	Action TraceAction
	// Local/Remote count followed pointers for TraceDereferenced.
	Local, Remote int
}

// String renders the event as a log line.
func (e TraceEvent) String() string {
	switch e.Action {
	case TraceDequeued, TraceSkipped, TraceMissing, TraceResult:
		return fmt.Sprintf("%v: %s", e.ID, e.Action)
	case TraceDereferenced:
		return fmt.Sprintf("%v: F%d %s (%d local, %d remote)", e.ID, e.Filter, e.Action, e.Local, e.Remote)
	default:
		return fmt.Sprintf("%v: F%d %s", e.ID, e.Filter, e.Action)
	}
}

// WithTrace registers a callback receiving every processing step. Tracing
// is for debugging; the callback runs synchronously.
func WithTrace(cb func(TraceEvent)) Option {
	return func(e *Engine) { e.trace = cb }
}

func (e *Engine) emit(ev TraceEvent) {
	if e.trace != nil {
		e.trace(ev)
	}
}
