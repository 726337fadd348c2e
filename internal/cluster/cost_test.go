package cluster

import (
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/wire"
)

// TestRecvCostEdgeCharges pins the per-message receiver-CPU charges of the
// virtual-time model directly, message kind by message kind: the committed
// benchmark JSONs are downstream of exactly these sums.
func TestRecvCostEdgeCharges(t *testing.T) {
	cost := sim.Paper()
	c := NewSim(1, Options{Cost: cost})
	ss := c.sites[1]
	ids := func(n int) []object.ID {
		out := make([]object.ID, n)
		for i := range out {
			out[i] = object.ID{Birth: 1, Seq: uint64(i + 1)}
		}
		return out
	}

	cases := []struct {
		name string
		msg  wire.Msg
		want time.Duration
	}{
		// A single-id Deref costs exactly RecvMsg — the unbatched protocol's
		// charge, which the batching feature must not perturb.
		{"deref-1", &wire.Deref{ObjIDs: ids(1)}, cost.RecvMsg},
		// Every batched id beyond the first adds only the per-entry charge.
		{"deref-2", &wire.Deref{ObjIDs: ids(2)}, cost.RecvMsg + cost.DerefItem},
		{"deref-8", &wire.Deref{ObjIDs: ids(8)}, cost.RecvMsg + 7*cost.DerefItem},
		// Installing k returned ids at the originator costs k item charges.
		{"result-0", &wire.Result{}, cost.RecvMsg},
		{"result-1", &wire.Result{IDs: ids(1)}, cost.RecvMsg + cost.ResultItem},
		{"result-5", &wire.Result{IDs: ids(5)}, cost.RecvMsg + 5*cost.ResultItem},
		// Tiny control traffic uses the control charges, not the full
		// message charge.
		{"control", &wire.Control{}, cost.CtlRecv},
		{"finish", &wire.Finish{}, cost.CtlRecv},
		// Everything else (Submit, Seed, ...) is a plain message receive.
		{"submit", &wire.Submit{}, cost.RecvMsg},
	}
	for _, tc := range cases {
		if got := ss.recvCost(tc.msg); got != tc.want {
			t.Errorf("recvCost(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSendCostEdgeCharges(t *testing.T) {
	cost := sim.Paper()
	c := NewSim(1, Options{Cost: cost})
	ss := c.sites[1]
	cases := []struct {
		name string
		msg  wire.Msg
		want time.Duration
	}{
		{"control", &wire.Control{}, cost.CtlSend},
		{"finish", &wire.Finish{}, cost.CtlSend},
		{"deref", &wire.Deref{}, cost.SendMsg},
		{"result", &wire.Result{}, cost.SendMsg},
		{"submit", &wire.Submit{}, cost.SendMsg},
	}
	for _, tc := range cases {
		if got := ss.sendCost(tc.msg); got != tc.want {
			t.Errorf("sendCost(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLinkLatencyLookup pins the lat() resolution rules: the uniform
// cost-model latency by default and for the pseudo client, the compiled
// matrix for inter-site links once a topology is installed.
func TestLinkLatencyLookup(t *testing.T) {
	cost := sim.Paper()
	c := NewSim(3, Options{Cost: cost})
	if got := c.lat(1, 2); got != cost.Latency {
		t.Errorf("default lat(1,2) = %v, want the cost-model latency %v", got, cost.Latency)
	}
	m := make([][]time.Duration, 4)
	for u := 1; u <= 3; u++ {
		m[u] = make([]time.Duration, 4)
		for v := 1; v <= 3; v++ {
			if u != v {
				m[u][v] = time.Duration(u*10+v) * time.Millisecond
			}
		}
	}
	c.setLinkLatency(m)
	if got := c.lat(1, 2); got != 12*time.Millisecond {
		t.Errorf("matrix lat(1,2) = %v, want 12ms", got)
	}
	if got := c.lat(3, 1); got != 31*time.Millisecond {
		t.Errorf("matrix lat(3,1) = %v, want 31ms", got)
	}
	// The client is not in any topology: both directions use the uniform
	// latency even with a matrix installed.
	if got := c.lat(clientID, 1); got != cost.Latency {
		t.Errorf("lat(client,1) = %v, want %v", got, cost.Latency)
	}
	if got := c.lat(1, clientID); got != cost.Latency {
		t.Errorf("lat(1,client) = %v, want %v", got, cost.Latency)
	}
}

// TestSimClientStopsOnUnexpectedMessage: a site addressing the simulated
// client with anything but a completion or a rejection is a protocol bug,
// and the run stops with an error instead of dropping the message.
func TestSimClientStopsOnUnexpectedMessage(t *testing.T) {
	c := NewSim(1, Options{})
	c.deliver(1, clientID, &wire.Deref{QID: wire.QueryID{Origin: 1, Seq: 1}}, 0)
	if c.err == nil {
		t.Fatal("the simulated client dropped an unexpected Deref silently")
	}
}
