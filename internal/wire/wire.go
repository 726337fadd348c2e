// Package wire defines the messages HyperFile sites exchange and a compact
// binary codec for them.
//
// The protocol follows section 3.2 of the paper. A remote dereference ships
// the query — not the data: a Deref message carries the query identity
// (Q.id, Q.originator), the query body, and the per-object cursor (O.id,
// O.start; O.start also carries O.iter#, since bounded iterators are
// unrolled). Results are sent directly to the originating site.
// Termination-detection tokens (credits or acks) piggyback on Deref and
// Result messages or travel in Control messages.
package wire

import (
	"fmt"

	"hyperfile/internal/object"
)

// QueryID identifies a query globally: the paper's Q.id combined with
// Q.originator.
type QueryID struct {
	Origin object.SiteID
	Seq    uint64
}

// String renders "q<seq>@s<origin>".
func (q QueryID) String() string {
	return fmt.Sprintf("q%d@%s", q.Seq, q.Origin)
}

// Kind discriminates message payloads.
type Kind uint8

const (
	// KInvalid is the zero Kind.
	KInvalid Kind = iota
	// KSubmit starts a query at its originating site (client -> site).
	KSubmit
	// KDeref asks a site to process an object for a query (site -> site).
	KDeref
	// KResult returns result ids / fetched values / counts to the
	// originating site when a working set drains (site -> originator).
	KResult
	// KControl carries a termination-detection token (credit return or ack).
	KControl
	// KFinish tells a participating site to discard (or retain) its query
	// context after global termination (originator -> site).
	KFinish
	// KComplete delivers the final answer (originator -> client).
	KComplete
	// KSeed asks a site to seed a new query's working set from the retained
	// (distributed) result set of an earlier query.
	KSeed
	// KStatsReq asks a site for its counters (administration).
	KStatsReq
	// KStatsResp returns them.
	KStatsResp
	// KMigrate asks the site presumed to hold an object to move it.
	KMigrate
	// KMigrateData carries the full object to its new site.
	KMigrateData
	// KMigrateDone informs the birth site of the object's new location.
	KMigrateDone
	// KMigrated reports the outcome to the requesting client.
	KMigrated
	// KAck acknowledges receipt of reliably-delivered transport frames;
	// it never reaches site logic (the transport layer consumes it).
	KAck
	// KHeartbeat is a liveness probe between sites, feeding the peer
	// failure detector. Heartbeats are sent unreliably (no ack, no
	// retransmission): a lost heartbeat is itself the signal.
	KHeartbeat
	// KDerefBatch is the batched Deref wire layout: one query/body/cursor
	// with a slice of object ids. Encoders always emit this layout; KDeref
	// remains decodable for legacy single-id frames.
	KDerefBatch
	// KReject tells a client its Submit was refused by admission control
	// (originator -> client). No query context was created.
	KReject
	// KCancel asks a site to abandon a query's context, returning any held
	// termination credit to the originator (originator -> sites, or
	// client -> originator to abort a query it no longer wants).
	KCancel
)

var kindNames = [...]string{
	KInvalid: "invalid", KSubmit: "submit", KDeref: "deref",
	KResult: "result", KControl: "control", KFinish: "finish",
	KComplete: "complete", KSeed: "seed",
	KStatsReq: "stats-req", KStatsResp: "stats-resp",
	KMigrate: "migrate", KMigrateData: "migrate-data",
	KMigrateDone: "migrate-done", KMigrated: "migrated",
	KAck: "ack", KHeartbeat: "heartbeat", KDerefBatch: "deref-batch",
	KReject: "reject", KCancel: "cancel",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Span is one cross-site trace record: while executing a query, each site
// aggregates the objects it processed per filter step over a drain interval
// and emits one span per (filter, interval). No message carries a span: each
// site keeps its own in its trace ring, and whoever reads the rings merges
// them into one per-query timeline (site.MergeTraces). The codec still walks
// the span lists older senders put on Deref, Result, Control and Complete,
// and drops them.
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

// Msg is implemented by every message type.
type Msg interface {
	Kind() Kind
	Query() QueryID
}

// Envelope pairs a message with its destination; site logic emits envelopes
// and the transport layer delivers them.
type Envelope struct {
	To  object.SiteID
	Msg Msg
}

// Submit starts query execution at the receiving site, which becomes the
// originator. Client is the endpoint to which the Complete message is sent.
type Submit struct {
	QID    QueryID
	Client object.SiteID
	// ClientAddr optionally carries the client's network address so a TCP
	// server can register where to deliver the Complete message. Ignored by
	// in-process transports.
	ClientAddr string
	Body       string // concrete query syntax; ~40 bytes for typical queries
	Initial    []object.ID
	// InitialFromResultOf, when non-zero, seeds the working set at every
	// retaining site from that query's distributed result set instead of
	// Initial (the paper's section 5 "distributed set" refinement).
	InitialFromResultOf QueryID
	// BudgetUS is the client's remaining time budget in microseconds; zero
	// means no budget (the site may still impose its configured default
	// deadline). Budgets are relative durations, not wall-clock deadlines,
	// so sites need no clock synchronization. Trailing and optional: frames
	// from older clients decode with BudgetUS zero.
	BudgetUS uint64
	// ClientID identifies the submitting client for the origin site's round
	// robin over clients (admissions and engine steps). Distinct from
	// Client, which is the wire endpoint the Complete goes to: many logical
	// clients may share one endpoint. Trailing and optional: frames from
	// older clients decode with ClientID zero (the one shared lane that
	// participant work also uses).
	ClientID uint64
}

// Kind returns KSubmit.
func (m *Submit) Kind() Kind { return KSubmit }

// Query returns the query id.
func (m *Submit) Query() QueryID { return m.QID }

// Deref asks the destination site to process a batch of objects for a query.
// Every object in the batch shares the query identity and the filter index
// Start its processing begins at, which also carries its iteration number
// (query.Compile unrolls bounded iterators); a sender coalesces pointers
// bound for the same destination at the same start into one message, paying
// the ~50 ms wire tax once instead of per pointer. Body is included in every
// message (as in the paper) so any site can build the context without extra
// round trips.
type Deref struct {
	QID    QueryID
	Origin object.SiteID // Q.originator, where results must be sent
	Body   string
	ObjIDs []object.ID
	Start  int
	// Token is the termination-detection payload: a share of the sender's
	// weighted-message credit. On the last Deref of a drain it carries
	// everything the sender held, so the sender sends no credit return of
	// its own.
	Token []byte
	// Hop is the trace context's dereference depth: the sender's own hop
	// plus one. The receiving site stamps it on the spans it emits.
	Hop uint32
	// BodyHash, when present, is the full 32-byte fingerprint of Body
	// (query.FingerprintOf), letting the receiver consult its plan cache
	// without rehashing. It is trailing and optional: frames from older
	// senders decode with BodyHash nil and the receiver hashes locally.
	// Correctness never rests on it — the plan cache compares the body text
	// itself before serving a plan.
	BodyHash []byte
	// BudgetUS is the query's remaining time budget in microseconds as of
	// the moment the sender emitted this message; zero means no budget. The
	// receiver derives its local deadline from it, so the budget shrinks at
	// every hop and one slow peer cannot pin resources cluster-wide.
	// Trailing and optional, after BodyHash.
	BudgetUS uint64
}

// Kind returns KDeref.
func (m *Deref) Kind() Kind { return KDeref }

// Query returns the query id.
func (m *Deref) Query() QueryID { return m.QID }

// FetchVal is one retrieved field value, tagged with the "->" binding it
// belongs to so the originator can route it to the right client variable.
type FetchVal struct {
	Var  string
	From object.ID
	Val  object.Value
}

// Result flushes a site's accumulated local results to the originator. With
// the distributed-set refinement active, IDs may be withheld and only Count
// reported.
type Result struct {
	QID     QueryID
	IDs     []object.ID
	Fetches []FetchVal
	// Count is the number of local results this flush represents. It equals
	// len(IDs) unless ids were withheld under the distributed-set threshold.
	Count int
	// Retained reports that the sending site kept its local results for use
	// as a distributed initial set.
	Retained bool
	// Token is the termination-detection payload (returned credit).
	Token []byte
	// Unreachable lists sites this participant skipped dereferences to
	// because its failure detector declared them dead; the originator folds
	// them into the final answer's unreachable set.
	Unreachable []object.SiteID
}

// Kind returns KResult.
func (m *Result) Kind() Kind { return KResult }

// Query returns the query id.
func (m *Result) Query() QueryID { return m.QID }

// Control carries a standalone termination token: a credit return that no
// Result or Deref of the same drain carries.
type Control struct {
	QID   QueryID
	Token []byte
}

// Kind returns KControl.
func (m *Control) Kind() Kind { return KControl }

// Query returns the query id.
func (m *Control) Query() QueryID { return m.QID }

// Finish announces global termination to a participant. With Retain set the
// site keeps its context and local result set for distributed-set reuse.
type Finish struct {
	QID    QueryID
	Retain bool
}

// Kind returns KFinish.
func (m *Finish) Kind() Kind { return KFinish }

// Query returns the query id.
func (m *Finish) Query() QueryID { return m.QID }

// Complete delivers the final answer to the client endpoint.
type Complete struct {
	QID     QueryID
	IDs     []object.ID
	Fetches []FetchVal
	// Count is the total number of results, which exceeds len(IDs) when
	// sites retained their portions under the distributed-set refinement.
	Count int
	// Distributed reports that at least one site retained results.
	Distributed bool
	// Partial reports that the query was aborted (e.g. a site down or a
	// client timeout) and the answer covers only the sites heard from —
	// "partial results are better than none at all".
	Partial bool
	// Err carries a query-level failure (e.g. a body that fails to parse at
	// the originator).
	Err string
	// Unreachable names the sites whose objects could not be consulted
	// because they were declared dead — the answer covers only the live
	// portion of the database. Non-empty Unreachable implies Partial.
	Unreachable []object.SiteID
	// Reason annotates a Partial answer with why the query ended early
	// ("deadline expired", "cancelled by client", "peer down"), so clients
	// can distinguish shed work from dead peers. Empty for complete answers.
	// Trailing and optional: frames from older originators decode with
	// Reason empty.
	Reason string
}

// Kind returns KComplete.
func (m *Complete) Kind() Kind { return KComplete }

// Query returns the query id.
func (m *Complete) Query() QueryID { return m.QID }

// Seed instructs a site to start processing a query using its retained local
// portion of an earlier query's distributed result set as the initial set
// (the section-5 refinement for low-selectivity queries).
type Seed struct {
	QID    QueryID
	Origin object.SiteID
	Body   string
	// FromQID identifies the finished query whose retained local results
	// seed the working set.
	FromQID QueryID
	// Token is the termination-detection payload, exactly as on Deref.
	Token []byte
	// Hop is the trace context's dereference depth, exactly as on Deref.
	Hop uint32
	// BudgetUS is the remaining time budget, exactly as on Deref. Trailing
	// and optional.
	BudgetUS uint64
}

// Kind returns KSeed.
func (m *Seed) Kind() Kind { return KSeed }

// Query returns the query id.
func (m *Seed) Query() QueryID { return m.QID }

// StatsReq asks a site for its counters. Seq correlates the response;
// ClientAddr lets TCP servers learn where to send it (as with Submit).
type StatsReq struct {
	Seq        uint64
	ClientAddr string
}

// Kind returns KStatsReq.
func (m *StatsReq) Kind() Kind { return KStatsReq }

// Query returns the zero QueryID (stats are not query-scoped).
func (m *StatsReq) Query() QueryID { return QueryID{} }

// StatsResp carries a site's counters.
type StatsResp struct {
	Seq      uint64
	Site     object.SiteID
	Contexts uint64
	Objects  uint64
	// Counters is an ordered list of (name, value) pairs so new counters
	// never break the wire format.
	Counters []Counter
}

// Counter is one named statistic.
type Counter struct {
	Name  string
	Value uint64
}

// Kind returns KStatsResp.
func (m *StatsResp) Kind() Kind { return KStatsResp }

// Query returns the zero QueryID.
func (m *StatsResp) Query() QueryID { return QueryID{} }

// Migrate asks the receiving site to move object ID to site To (section 4:
// objects move; the birth site stays the naming authority). A site that no
// longer holds the object forwards the request along its best knowledge.
// Client/ClientAddr identify the administration client awaiting the
// Migrated outcome; Hops bounds forwarding.
type Migrate struct {
	Seq        uint64
	ID         object.ID
	To         object.SiteID
	Client     object.SiteID
	ClientAddr string
	Hops       uint8
}

// Kind returns KMigrate.
func (m *Migrate) Kind() Kind { return KMigrate }

// Query returns the zero QueryID.
func (m *Migrate) Query() QueryID { return QueryID{} }

// MigrateData carries the full object (JSON-lines dataset encoding) to its
// new home, along with the outcome-reporting route.
type MigrateData struct {
	Seq        uint64
	Obj        []byte
	Client     object.SiteID
	ClientAddr string
}

// Kind returns KMigrateData.
func (m *MigrateData) Kind() Kind { return KMigrateData }

// Query returns the zero QueryID.
func (m *MigrateData) Query() QueryID { return QueryID{} }

// MigrateDone updates the birth site's authority after a move.
type MigrateDone struct {
	ID      object.ID
	NewSite object.SiteID
}

// Kind returns KMigrateDone.
func (m *MigrateDone) Kind() Kind { return KMigrateDone }

// Query returns the zero QueryID.
func (m *MigrateDone) Query() QueryID { return QueryID{} }

// Migrated reports a migration's outcome to the requesting client.
type Migrated struct {
	Seq uint64
	ID  object.ID
	OK  bool
	Err string
}

// Kind returns KMigrated.
func (m *Migrated) Kind() Kind { return KMigrated }

// Query returns the zero QueryID.
func (m *Migrated) Query() QueryID { return QueryID{} }

// Reject refuses a Submit under admission control: the site is at its
// inflight bound and its admission queue is full (or the queued Submit's
// deadline expired before a slot opened). No query context exists; the
// client should back off or retry elsewhere. Reason is a short diagnostic,
// not an error chain.
type Reject struct {
	QID    QueryID
	Reason string
}

// Kind returns KReject.
func (m *Reject) Kind() Kind { return KReject }

// Query returns the query id.
func (m *Reject) Query() QueryID { return m.QID }

// Cancel abandons a query cooperatively. Fanned out by the originator to
// participants on deadline expiry, client abort, or a shed decision, it asks
// each site to discard the query's working set and return all held
// termination credit immediately, so the originator's credit accounting
// still sums exactly to 1 and the query completes as an annotated partial
// answer instead of hanging. A client may also send Cancel to the
// originator to abort a query it submitted.
type Cancel struct {
	QID    QueryID
	Reason string
}

// Kind returns KCancel.
func (m *Cancel) Kind() Kind { return KCancel }

// Query returns the query id.
func (m *Cancel) Query() QueryID { return m.QID }

// Ack acknowledges reliably-delivered transport frames of one sender epoch
// (per sender-receiver link). Cum is cumulative: every frame with a sequence
// number at or below it has been delivered, so the sender retires that whole
// prefix. Seq, when above Cum, selectively acknowledges one frame that
// arrived past a gap — only loss or reordering produces those — so it is not
// retransmitted while the gap heals. Acks travel on the reverse path of the
// connection that carried the frames and are themselves sent unreliably: a
// lost ack is healed by the next cumulative one, or triggers a
// retransmission that the receiver's dedup window absorbs and acks again.
type Ack struct {
	Seq uint64
	// Cum is trailing and optional on the wire: the pre-cumulative layout
	// ends after Seq and decodes as Cum 0, which retires nothing beyond Seq.
	Cum uint64
}

// Kind returns KAck.
func (m *Ack) Kind() Kind { return KAck }

// Query returns the zero QueryID (acks are not query-scoped).
func (m *Ack) Query() QueryID { return QueryID{} }

// Heartbeat is a periodic liveness probe. Seq increments per probe so
// captures are distinguishable in traces; receivers only use the arrival.
type Heartbeat struct {
	Seq uint64
}

// Kind returns KHeartbeat.
func (m *Heartbeat) Kind() Kind { return KHeartbeat }

// Query returns the zero QueryID.
func (m *Heartbeat) Query() QueryID { return QueryID{} }

// Interface compliance.
var (
	_ Msg = (*Ack)(nil)
	_ Msg = (*Heartbeat)(nil)
	_ Msg = (*Migrate)(nil)
	_ Msg = (*MigrateData)(nil)
	_ Msg = (*MigrateDone)(nil)
	_ Msg = (*Migrated)(nil)
	_ Msg = (*StatsReq)(nil)
	_ Msg = (*StatsResp)(nil)
	_ Msg = (*Seed)(nil)
	_ Msg = (*Submit)(nil)
	_ Msg = (*Deref)(nil)
	_ Msg = (*Result)(nil)
	_ Msg = (*Control)(nil)
	_ Msg = (*Finish)(nil)
	_ Msg = (*Complete)(nil)
	_ Msg = (*Reject)(nil)
	_ Msg = (*Cancel)(nil)
)
