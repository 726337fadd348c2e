package site

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"hyperfile/internal/engine"
	"hyperfile/internal/termination"
)

// Tuning is every knob a deployment or a scenario may set, declared once:
// Config, cluster.Options, bench.LoadConfig and hyperfiled's config embed it,
// and sim.Exec is it. The zero value is the production protocol; New writes
// the defaults. The JSON keys are a scenario's "exec" keys; knobs with no
// meaning in virtual time have none.
type Tuning struct {
	// DerefBatch caps the object ids per outgoing Deref message: remote
	// dereferences coalesce into per-destination batches, and a sender-side
	// sent-cache suppresses re-sends the destination's mark table would
	// reject anyway. Zero means DerefBatchSize, the protocol hyperfiled runs;
	// Unbatched (any negative value) is the paper's one-object-per-message
	// protocol exactly.
	DerefBatch int `json:"deref_batch,omitempty"`
	// MaxInflight, when positive, bounds the unfinished query contexts this
	// site holds. Submits beyond it wait in the admission queue or are
	// refused with wire.Reject; Deref and Seed are always accepted, since
	// refusing them would strand termination credit. Zero admits everything.
	MaxInflight int `json:"max_inflight,omitempty"`
	// AdmissionQueue bounds the Submits waiting for a slot at MaxInflight.
	// Zero rejects over-limit Submits at once.
	AdmissionQueue int `json:"admission_queue,omitempty"`
	// QueryDeadline, when positive, is the budget an originator gives a
	// Submit that carries none. The remaining budget travels on every
	// Deref/Seed, and an expired query completes as an annotated partial.
	QueryDeadline time.Duration `json:"-"`
	// HeartbeatInterval, when positive, makes a server probe its peers this
	// often (0 = no failure detector).
	HeartbeatInterval time.Duration `json:"-"`
	// SuspectAfter is the silence after which a probed peer is declared
	// down (default four intervals).
	SuspectAfter time.Duration `json:"-"`
}

// Ablation holds the paper's design alternatives and the test-only checks,
// which no command line reaches.
type Ablation struct {
	// Order is the working-set discipline.
	Order engine.Order
	// ResultBatch caps ids per Result message; 0, the default, means
	// unbounded (A6 sweeps it).
	ResultBatch int
	// DistributedSetThreshold, when positive, makes a participant withhold
	// its local result ids and report only a count whenever a drain yields
	// more than this many results (the paper's distributed-set refinement).
	DistributedSetThreshold int
	// TermAudit, when non-nil, wraps every query's termination detector in
	// the conservation checker: held, recovered, and in-flight credit must
	// sum to exactly 1 after every detector event.
	TermAudit *termination.Audit
}

// Flags registers hyperfiled's tuning flags on fs, bound to t and defaulting
// to t's values.
func (t *Tuning) Flags(fs *flag.FlagSet) {
	fs.IntVar(&t.MaxInflight, "max-inflight", t.MaxInflight, "max live query contexts before admission control kicks in (0 = unbounded)")
	fs.IntVar(&t.AdmissionQueue, "admission-queue", t.AdmissionQueue, "Submits queued while at max-inflight before rejecting (0 = reject immediately)")
	fs.DurationVar(&t.QueryDeadline, "query-deadline", t.QueryDeadline, "default per-query time budget; expired queries return annotated partials (0 = none)")
	fs.DurationVar(&t.HeartbeatInterval, "heartbeat", t.HeartbeatInterval, "peer heartbeat interval (0 = no failure detector)")
	fs.DurationVar(&t.SuspectAfter, "suspect-after", t.SuspectAfter, "silence before a peer is declared down (default 4x heartbeat)")
}

// Validate reports the first knob out of range, named by its flag. Any
// DerefBatch is valid.
func (t Tuning) Validate() error {
	for _, k := range []struct {
		flag     string
		v        any
		negative bool
	}{
		{"-max-inflight", t.MaxInflight, t.MaxInflight < 0},
		{"-admission-queue", t.AdmissionQueue, t.AdmissionQueue < 0},
		{"-query-deadline", t.QueryDeadline, t.QueryDeadline < 0},
		{"-heartbeat", t.HeartbeatInterval, t.HeartbeatInterval < 0},
		{"-suspect-after", t.SuspectAfter, t.SuspectAfter < 0},
	} {
		if k.negative {
			return fmt.Errorf("%s %v is negative", k.flag, k.v)
		}
	}
	if t.AdmissionQueue > 0 && t.MaxInflight == 0 {
		return errors.New("-admission-queue needs -max-inflight (nothing bounds admission, nothing queues)")
	}
	if t.SuspectAfter > 0 && t.HeartbeatInterval == 0 {
		return errors.New("-suspect-after needs -heartbeat (no probes, nothing to suspect)")
	}
	return nil
}
