// Package termination implements distributed termination detection for
// query processing. With a single site a query terminates when its working
// set empties; with multiple sites every working set must be empty and no
// dereference message may be in flight (the Distributed Termination Problem,
// paper section 4).
//
// Two detectors are provided:
//
//   - Weighted: the weighted-message (credit) algorithm the paper's
//     prototype implements. The originator starts with credit 1; every work
//     message carries a share of the sender's credit; a site whose working
//     set drains hands all held credit on with the last work message of that
//     drain (HandOff), or returns it to the originator when the drain sent
//     none. Global termination holds exactly when the originator has
//     recovered credit 1.
//     Credits only ever halve and add, so each is an exact dyadic rational,
//     an odd mantissa over a power of two: detection is never spurious, and
//     a split costs an exponent increment. A token is the exponent as a
//     canonical uvarint followed by the mantissa's minimal big-endian bytes
//     (1/2 is 01 01, 3/1024 is 0a 03), one encoding per value, bounded at
//     exponent 2^19 on decode before anything is allocated.
//
//   - DijkstraScholten: the classic diffusing-computation detector, kept as
//     an ablation alternative. Every work message is eventually acknowledged;
//     a site acknowledges its engagement parent once it is idle and all of
//     its own messages are acknowledged; the originator terminates when it is
//     idle with no outstanding acknowledgements.
//
// Both are driven through the Detector interface by the site layer:
// OnSend when emitting a work message, OnWorkReceived when one arrives,
// OnControl when a control token arrives, and OnIdle whenever the local
// working set is (still) empty after any of the above.
package termination

import (
	"errors"
	"fmt"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
)

// Mode selects a detection algorithm.
type Mode uint8

const (
	// Weighted is the weighted-message (credit-recovery) algorithm.
	Weighted Mode = iota
	// DijkstraScholten is the diffusing-computation parent-tree algorithm.
	DijkstraScholten
)

// String names the mode.
func (m Mode) String() string {
	if m == DijkstraScholten {
		return "dijkstra-scholten"
	}
	return "weighted"
}

// ControlMsg is a standalone detection token addressed to a site.
type ControlMsg struct {
	To    object.SiteID
	Token []byte
}

// Detector is per-(site, query) detection state.
//
// The site layer must call OnIdle after every OnWorkReceived / OnControl /
// local drain that leaves the working set empty; detectors are idempotent
// under repeated OnIdle calls.
type Detector interface {
	// OnSend returns the token to attach to an outgoing work message.
	OnSend(to object.SiteID) ([]byte, error)
	// OnWorkReceived ingests the token of an arriving work message and may
	// emit immediate control messages.
	OnWorkReceived(from object.SiteID, token []byte) ([]ControlMsg, error)
	// HandOff merges everything the detector holds into token, one OnSend
	// emitted for a work message not yet sent, and returns the merged token
	// to send in its place (ok). A site about to go idle calls it on its
	// last outgoing work message, so its credit rides the work instead of
	// returning home; OnIdle then has nothing to return. Detectors that
	// cannot hand off report ok false and change nothing.
	HandOff(token []byte) (merged []byte, ok bool, err error)
	// OnIdle reports that the local working set is empty; it returns control
	// messages to emit (credit returns, acknowledgements).
	OnIdle() []ControlMsg
	// OnControl ingests an arriving control token.
	OnControl(from object.SiteID, token []byte) error
	// Done reports global termination; it is meaningful at the originator.
	Done() bool
}

// Quiet reports that a detector holds no credit or obligations, so its
// context can be discarded without breaking conservation. Detectors that do
// not implement the optional Quiet() method (e.g. test fakes) are treated
// as always quiet.
func Quiet(d Detector) bool {
	if q, ok := d.(interface{ Quiet() bool }); ok {
		return q.Quiet()
	}
	return true
}

// ErrToken is the base error for malformed or impossible detection tokens.
var ErrToken = errors.New("termination: bad token")

// Metrics holds the detection counters a detector increments. Every field
// is a nil-safe no-op when unset, so the zero Metrics disables accounting.
type Metrics struct {
	// Splits counts weight splits: each work message that carries away a
	// share of the sender's credit (or, for Dijkstra-Scholten, each message
	// adding to the sender's deficit).
	Splits *metrics.Counter
	// Returns counts weight returns: credit flowing back toward the
	// originator (or acknowledgements shrinking a deficit). Credit handed
	// on with work is not a return.
	Returns *metrics.Counter
	// HandOffs counts hand-offs: held credit merged onto an outgoing work
	// message's token instead of being returned.
	HandOffs *metrics.Counter
}

// New returns a detector of the given mode for site self processing a query
// originated at origin.
func New(mode Mode, self, origin object.SiteID) Detector {
	return NewInstrumented(mode, self, origin, Metrics{})
}

// NewInstrumented is New with detection counters attached.
func NewInstrumented(mode Mode, self, origin object.SiteID, m Metrics) Detector {
	switch mode {
	case DijkstraScholten:
		return newDS(self, origin, m)
	default:
		return newWeighted(self, origin, m)
	}
}

func tokenErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrToken, fmt.Sprintf(format, args...))
}
