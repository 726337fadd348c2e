// Package termination implements distributed termination detection for
// query processing. With a single site a query terminates when its working
// set empties; with multiple sites every working set must be empty and no
// dereference message may be in flight (the Distributed Termination Problem,
// paper section 4).
//
// The detector is the weighted-message (credit) algorithm the paper's
// prototype implements. The originator starts with credit 1; every work
// message carries a share of the sender's credit; a site whose working set
// drains hands all held credit on with the last work message of that drain
// (HandOff), or returns it to the originator when the drain sent none.
// Global termination holds exactly when the originator has recovered
// credit 1.
//
// Credits only ever halve and add, so each is an exact dyadic rational, an
// odd mantissa over a power of two: detection is never spurious, and a split
// costs an exponent increment. A token is the exponent as a canonical uvarint
// followed by the mantissa's minimal big-endian bytes (1/2 is 01 01, 3/1024
// is 0a 03), one encoding per value, bounded at exponent 2^19 on decode
// before anything is allocated.
//
// The site layer drives it through the Detector interface: OnSend when
// emitting a work message, OnWorkReceived when one arrives, OnControl when a
// returned credit arrives, and OnIdle whenever the local working set is
// (still) empty after any of the above.
package termination

import (
	"errors"
	"fmt"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
)

// Mode names a detection algorithm; Weighted is the only one. New keeps its
// mode parameter for callers written against it, such as the layer timings
// of the perf/ benchmark.
type Mode uint8

// Weighted is the weighted-message (credit-recovery) algorithm.
const Weighted Mode = 0

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
	// OnWorkReceived ingests the token of an arriving work message. The
	// returned control messages are always empty: credit goes home only from
	// OnIdle.
	OnWorkReceived(from object.SiteID, token []byte) ([]ControlMsg, error)
	// HandOff merges everything the detector holds into token, one OnSend
	// emitted for a work message not yet sent, and returns the merged token
	// to send in its place. A site about to go idle calls it on its last
	// outgoing work message, so its credit rides the work instead of
	// returning home; OnIdle then has nothing to return.
	HandOff(token []byte) (merged []byte, err error)
	// OnIdle reports that the local working set is empty; it returns the
	// credit return to emit, if any. Afterwards the detector holds nothing.
	OnIdle() []ControlMsg
	// OnControl ingests an arriving control token.
	OnControl(from object.SiteID, token []byte) error
	// Done reports global termination; it is meaningful at the originator.
	Done() bool
}

// ErrToken is the base error for malformed or impossible detection tokens.
var ErrToken = errors.New("termination: bad token")

// Metrics holds the detection counters a detector increments. Every field
// is a nil-safe no-op when unset, so the zero Metrics disables accounting.
type Metrics struct {
	// Splits counts weight splits: each work message that carries away a
	// share of the sender's credit.
	Splits *metrics.Counter
	// Returns counts weight returns: credit flowing back toward the
	// originator. Credit handed on with work is not a return.
	Returns *metrics.Counter
	// HandOffs counts hand-offs: held credit merged onto an outgoing work
	// message's token instead of being returned.
	HandOffs *metrics.Counter
}

// New returns the detector for site self processing a query originated at
// origin. mode must be Weighted.
func New(_ Mode, self, origin object.SiteID) Detector {
	return NewInstrumented(self, origin, Metrics{})
}

// NewInstrumented is New with detection counters attached.
func NewInstrumented(self, origin object.SiteID, m Metrics) Detector {
	return newWeighted(self, origin, m)
}

func tokenErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrToken, fmt.Sprintf(format, args...))
}
