package sim

import "time"

// CostModel holds the virtual-time charges for query processing, calibrated
// to the constants the paper measured on its PC/RT prototype (section 5).
//
// The ~50 ms the paper attributes to a remote dereference covers "construct-
// ing the message, system calls for sending and receiving, and transmission
// delay"; we split it into sender CPU + wire latency + receiver CPU so that
// sender and receiver serialization are modeled separately. Result messages
// get the same treatment plus a per-item charge: installing a returned
// object id into the originator's result set costs the same ~20 ms as any
// other result-set add, paid at the originator.
type CostModel struct {
	// ProcessObject is charged at a site's CPU for each object taken through
	// the filters (the paper's ~8 ms).
	ProcessObject time.Duration
	// AddResult is charged when an object joins a site's local result set
	// (the paper's ~20 ms).
	AddResult time.Duration
	// SendMsg is the sender-CPU share of any inter-site message.
	SendMsg time.Duration
	// RecvMsg is the receiver-CPU share of any inter-site message.
	RecvMsg time.Duration
	// Latency is the wire time of any inter-site message.
	Latency time.Duration
	// ResultItem is the per-id installation cost at the originator when a
	// result message arrives: the ordinary ~20 ms result-set add plus
	// unmarshalling. This is what makes "sending results expensive" for
	// low-selectivity queries (paper section 5).
	ResultItem time.Duration
	// DerefItem is the per-id receiver charge for each object id beyond the
	// first in a batched Deref message: unmarshalling and working-set
	// insertion, without the per-message overhead the batch amortizes. A
	// single-id Deref costs exactly RecvMsg, matching the unbatched protocol.
	DerefItem time.Duration
	// CtlSend/CtlRecv are the CPU shares for tiny control messages
	// (termination credit returns), much smaller than full
	// dereference processing.
	CtlSend time.Duration
	CtlRecv time.Duration
	// Compile is charged at a site's CPU each time a query body is lexed,
	// parsed, and lowered to a physical plan — the per-site setup cost the
	// paper notes is "only required once at each involved site". With the
	// plan cache enabled, repeated bodies pay PlanCacheHit instead.
	Compile time.Duration
	// PlanCacheHit is charged when a site reuses a cached physical plan for
	// a query body it compiled before: a hash lookup plus verification,
	// orders of magnitude below Compile.
	PlanCacheHit time.Duration
	// ResultBatch caps the number of ids per result message; a drain with
	// more local results sends several messages. Zero means unbounded.
	ResultBatch int
}

// Paper is the cost model calibrated to the constants of section 5:
// 8 ms/object, 20 ms/result-set add, and ~50 ms per remote message
// (20 ms sender CPU + 10 ms wire + 20 ms receiver CPU).
func Paper() CostModel {
	return CostModel{
		ProcessObject: 8 * time.Millisecond,
		AddResult:     20 * time.Millisecond,
		SendMsg:       20 * time.Millisecond,
		RecvMsg:       20 * time.Millisecond,
		Latency:       10 * time.Millisecond,
		ResultItem:    26 * time.Millisecond,
		DerefItem:     2 * time.Millisecond,
		CtlSend:       5 * time.Millisecond,
		CtlRecv:       5 * time.Millisecond,
		Compile:       1 * time.Millisecond,
		PlanCacheHit:  10 * time.Microsecond,
		ResultBatch:   8,
	}
}

// Free is a zero-cost model: virtual time never advances. Useful for
// functional tests that only care about answers.
func Free() CostModel { return CostModel{} }
