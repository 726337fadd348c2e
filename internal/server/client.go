package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
)

// ErrTimeout is returned when the deadline passes; the accompanying Complete
// (if non-nil) carries the partial answer recovered through an abort.
var ErrTimeout = errors.New("server: query timed out")

// ErrRejected reports that the originator's admission control refused the
// query: the site was at its max-inflight bound with a full (or absent)
// admission queue, or the budget lapsed while the query waited for a slot.
var ErrRejected = errors.New("server: query rejected by admission control")

// cancelGrace bounds the wait, after a timed-out query's Cancel, for the
// partial answer the Cancel asks the originator for.
const cancelGrace = 5 * time.Second

// Client is a HyperFile network client. Like the paper's experimental
// client, it runs "at a separate machine from any of the servers": it has
// its own site id and listener so originators can send Complete messages
// directly to it.
type Client struct {
	tr  *transport.TCP
	reg *metrics.Registry

	mu   sync.Mutex
	next uint64
	// waiters holds one reply channel per outstanding request, keyed by the
	// request's sequence number (a query's QID.Seq, a StatsReq's or
	// Migrate's Seq); every request kind draws from the one counter.
	waiters map[uint64]chan wire.Msg
}

// NewClient starts a client endpoint with the given (client) site id,
// listening on addr ("127.0.0.1:0" for ephemeral).
func NewClient(id object.SiteID, addr string) (*Client, error) {
	return NewClientOpts(id, addr, transport.Options{})
}

// NewClientOpts is NewClient with explicit transport options (a fault
// injector, say).
func NewClientOpts(id object.SiteID, addr string, opts transport.Options) (*Client, error) {
	c := &Client{
		reg: metrics.NewRegistry(),
		// Seed the id counter from the clock so query ids from successive
		// client processes sharing a site id never collide: sites tombstone
		// finished query ids, and a reused id would make a fresh query look
		// like a straggler of the old one — its work silently dropped and
		// its termination credit abandoned, hanging the query.
		next:    uint64(time.Now().UnixNano())<<8 | uint64(rand.Intn(256)),
		waiters: make(map[uint64]chan wire.Msg),
	}
	tr, err := transport.ListenTCPOpts(id, addr, c.onMessage, opts)
	if err != nil {
		return nil, err
	}
	c.tr = tr
	return c, nil
}

// Addr returns the client's listen address (servers must AddPeer it).
func (c *Client) Addr() string { return c.tr.Addr() }

// ID returns the client's site id.
func (c *Client) ID() object.SiteID { return c.tr.Self() }

// AddServer registers a server's address.
func (c *Client) AddServer(id object.SiteID, addr string) { c.tr.AddPeer(id, addr) }

// Close shuts the client down.
func (c *Client) Close() { _ = c.tr.Close() }

// Metrics returns the client's metrics registry (hf_wire_unknown_msgs
// counts wire messages the client had no handler for).
func (c *Client) Metrics() *metrics.Registry { return c.reg }

func (c *Client) onMessage(_ object.SiteID, m wire.Msg) {
	var seq uint64
	switch m := m.(type) {
	case *wire.Complete:
		seq = m.QID.Seq
	case *wire.Reject:
		seq = m.QID.Seq
	case *wire.StatsResp:
		seq = m.Seq
	case *wire.Migrated:
		seq = m.Seq
	default:
		// The client endpoint only ever receives completions and reply
		// messages it solicited; anything else means a server addressed the
		// wrong site. Count it rather than dropping it invisibly.
		c.reg.Counter("hf_wire_unknown_msgs").Inc()
		return
	}
	c.mu.Lock()
	ch := c.waiters[seq]
	delete(c.waiters, seq)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
	}
}

// open draws a request sequence number and registers its waiter.
func (c *Client) open() (uint64, chan wire.Msg) {
	ch := make(chan wire.Msg, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	c.waiters[c.next] = ch
	return c.next, ch
}

// await sends req to site and waits up to timeout for the reply to seq,
// then removes seq's waiter whatever the outcome. A reply already in hand
// when the timer fires is on time. Otherwise, for a query (non-nil qid) it
// asks the originator to Cancel, and the partial answer that provokes within
// cancelGrace comes back with ErrTimeout; any other request gives up with
// ErrTimeout at once.
func (c *Client) await(seq uint64, ch chan wire.Msg, site object.SiteID, req wire.Msg, qid *wire.QueryID, timeout time.Duration) (wire.Msg, error) {
	defer func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}()
	if err := c.tr.Send(site, req); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-ch:
		return m, nil
	case <-timer.C:
	}
	select {
	case m := <-ch:
		return m, nil
	default:
	}
	if qid == nil {
		return nil, ErrTimeout
	}
	if err := c.Cancel(*qid); err != nil {
		return nil, fmt.Errorf("%w (cancel also failed: %v)", ErrTimeout, err)
	}
	timer.Reset(cancelGrace)
	select {
	case m := <-ch:
		return m, ErrTimeout
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// unexpected reports a reply whose kind does not answer the request that
// shares its sequence number.
func unexpected(m wire.Msg) error {
	return fmt.Errorf("server: unexpected %v reply", m.Kind())
}

// Migrate moves an object to another site (live, section 4). The request
// goes to the object's presumed current owner — its birth site unless the
// client knows better — and is forwarded along stale presumptions.
func (c *Client) Migrate(id object.ID, to object.SiteID, timeout time.Duration) error {
	seq, ch := c.open()
	req := &wire.Migrate{
		Seq: seq, ID: id, To: to,
		Client: c.tr.Self(), ClientAddr: c.tr.Addr(),
	}
	m, err := c.await(seq, ch, id.Birth, req, nil, timeout)
	if err != nil {
		return err
	}
	done, ok := m.(*wire.Migrated)
	switch {
	case !ok:
		return unexpected(m)
	case !done.OK:
		return fmt.Errorf("server: migration failed: %s", done.Err)
	}
	return nil
}

// Stats fetches a server's counters.
func (c *Client) Stats(site object.SiteID, timeout time.Duration) (*wire.StatsResp, error) {
	seq, ch := c.open()
	m, err := c.await(seq, ch, site, &wire.StatsReq{Seq: seq, ClientAddr: c.tr.Addr()}, nil, timeout)
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.StatsResp)
	if !ok {
		return nil, unexpected(m)
	}
	return resp, nil
}

// Exec submits a query to the originator site and waits for the answer. On
// timeout it asks the originator to abort and returns the partial answer
// with ErrTimeout.
func (c *Client) Exec(origin object.SiteID, body string, initial []object.ID, timeout time.Duration) (*wire.Complete, error) {
	return c.ExecBudget(origin, body, initial, 0, timeout)
}

// ExecBudget is Exec with a server-side time budget: the budget rides the
// Submit, shrinks on every cross-site hop, and an expired query comes back
// as a partial answer with Reason set — even if this client never follows
// up. Zero budget imposes none. An admission-control refusal returns
// ErrRejected.
func (c *Client) ExecBudget(origin object.SiteID, body string, initial []object.ID, budget, timeout time.Duration) (*wire.Complete, error) {
	cm, _, err := c.Submit(origin, wire.Submit{Body: body, Initial: initial}, budget, timeout)
	return cm, err
}

// Submit is ExecBudget for a caller-built Submit, which may carry
// InitialFromResultOf and ClientID; the client fills in QID, Client,
// ClientAddr and BudgetUS. It also returns the query's id, which seeds a
// follow-up (InitialFromResultOf) or names the query to Cancel.
func (c *Client) Submit(origin object.SiteID, sub wire.Submit, budget, timeout time.Duration) (*wire.Complete, wire.QueryID, error) {
	seq, ch := c.open()
	qid := wire.QueryID{Origin: origin, Seq: seq}
	sub.QID, sub.Client, sub.ClientAddr = qid, c.tr.Self(), c.tr.Addr()
	if budget > 0 {
		sub.BudgetUS = uint64(budget.Microseconds())
		if sub.BudgetUS == 0 {
			sub.BudgetUS = 1 // sub-microsecond budgets round up, not off
		}
	}
	m, err := c.await(seq, ch, origin, &sub, &qid, timeout)
	switch m := m.(type) {
	case nil:
		return nil, qid, err
	case *wire.Reject:
		return nil, qid, fmt.Errorf("%w: %s", ErrRejected, m.Reason)
	case *wire.Complete:
		if m.Err != "" {
			return nil, qid, fmt.Errorf("server: query failed: %s", m.Err)
		}
		return m, qid, err
	default:
		return nil, qid, unexpected(m)
	}
}

// Cancel asks the originator to cancel a running query. The query's Exec
// call (if still waiting) receives the partial answer; cancelling an
// unknown or finished query is a no-op.
func (c *Client) Cancel(qid wire.QueryID) error {
	return c.tr.Send(qid.Origin, &wire.Cancel{QID: qid, Reason: "cancelled by client"})
}
