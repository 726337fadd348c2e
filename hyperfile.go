// Package hyperfile is a back-end data storage and retrieval facility for
// document-management and hypertext applications, reproducing Clifton &
// Garcia-Molina, "Distributed Processing of Filtering Queries in HyperFile"
// (ICDCS 1991).
//
// Objects are sets of (type, key, data) tuples; data values include strings,
// numbers, keywords, opaque bytes, and pointers to other objects — possibly
// at other sites. Filtering queries extend hypertext browsing: a starting
// set, selection filters with pattern matching and matching variables,
// pointer dereferencing, and bounded or transitive-closure iteration:
//
//	S [ (Pointer, "Reference", ?X) ^^X ]** (keyword, "Distributed", ?) -> T
//
// Distributed processing ships the query — not the data — along remote
// pointers; results flow directly to the originating site, and global
// termination is detected with the weighted-message algorithm.
//
// Entry points:
//
//   - DB: a single-site, embedded store with local query execution.
//   - NewCluster: an in-process multi-site service, one server per site
//     and one client, over loopback TCP.
//   - NewSimCluster: a deterministic virtual-time cluster for experiments.
//   - NewServer / NewClient: the TCP deployment, one server per machine.
package hyperfile

import (
	"fmt"
	"log/slog"

	"hyperfile/internal/cluster"
	"hyperfile/internal/engine"
	"hyperfile/internal/index"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/server"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
)

// Core data-model types.
type (
	// ID is a globally unique object identifier (birth site + sequence).
	ID = object.ID
	// SiteID identifies a HyperFile server site.
	SiteID = object.SiteID
	// Value is one tuple field.
	Value = object.Value
	// Tuple is one self-describing (type, key, data) record.
	Tuple = object.Tuple
	// Object is a set of tuples with an id — the unit of storage and query
	// processing.
	Object = object.Object
	// IDSet is a set of object ids (query results).
	IDSet = object.IDSet
	// Query is a parsed filtering query.
	Query = query.Query
	// Fetch is one value retrieved by a "->var" pattern.
	Fetch = engine.Fetch
	// FetchVal is a retrieved value as delivered by distributed queries.
	FetchVal = wire.FetchVal
	// Result is a finished distributed query.
	Result = cluster.Result
	// Options configures clusters.
	Options = cluster.Options
	// Tuning is the knobs a deployment sets (Options.Tuning).
	Tuning = site.Tuning
	// CostModel is the virtual-time cost model for simulated clusters.
	CostModel = sim.CostModel
	// Cluster is an in-process multi-site HyperFile service.
	Cluster = cluster.LocalCluster
	// SimCluster is a deterministic virtual-time multi-site service.
	SimCluster = cluster.SimCluster
	// Server is a HyperFile site served over TCP.
	Server = server.Server
	// Client is a network client for TCP servers.
	Client = server.Client
	// QueryID names a distributed query globally.
	QueryID = wire.QueryID
	// Stats counts engine work for embedded execution.
	Stats = engine.Stats
)

// Value constructors.
var (
	// String builds a string value.
	String = object.String
	// Keyword builds a keyword value.
	Keyword = object.Keyword
	// Int builds an integer value.
	Int = object.Int
	// Float builds a float value.
	Float = object.Float
	// PointerTo builds a pointer value.
	PointerTo = object.Pointer
	// Bytes builds an opaque data value.
	Bytes = object.Bytes
	// NewIDSet builds a result set from ids.
	NewIDSet = object.NewIDSet
)

// PaperCosts returns the cost model calibrated to the paper's measured
// constants (8 ms/object, 20 ms/result, ~50 ms/remote message).
func PaperCosts() CostModel { return sim.Paper() }

// ParseQuery parses a filtering query in concrete syntax.
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// NewCluster starts an in-process cluster of n sites: n servers, the same
// runtime NewServer starts, and the client NewClient starts, talking over
// loopback TCP.
func NewCluster(n int, opts Options) *Cluster { return cluster.NewLocal(n, opts) }

// NewSimCluster builds a deterministic simulated cluster of n sites.
func NewSimCluster(n int, opts Options) *SimCluster { return cluster.NewSim(n, opts) }

// NewServer starts a TCP server for one site, running the protocol
// hyperfiled runs. store may be pre-loaded; peers list the other sites. Pass
// logger nil for the default.
func NewServer(id SiteID, st *store.Store, peers []SiteID, addr string, logger *slog.Logger) (*Server, error) {
	return server.New(site.Config{ID: id, Store: st, Peers: peers}, addr, logger)
}

// NewStore creates an object store for a site (used with NewServer).
func NewStore(id SiteID) *store.Store { return store.New(id) }

// NewClient starts a TCP client endpoint.
func NewClient(id SiteID, addr string) (*Client, error) { return server.NewClient(id, addr) }

// DB is an embedded single-site HyperFile: a store plus local query
// execution, for applications that do not need distribution.
type DB struct {
	st *store.Store
}

// Open returns an empty embedded database (site id 1).
func Open() *DB { return &DB{st: store.New(1)} }

// NewObject allocates a fresh object. Populate it with Add and store it
// with Put.
func (db *DB) NewObject() *Object { return db.st.NewObject() }

// Put stores (or replaces) an object.
func (db *DB) Put(o *Object) error { return db.st.Put(o) }

// Get fetches an object's searchable representation.
func (db *DB) Get(id ID) (*Object, bool) { return db.st.Get(id) }

// Delete removes an object.
func (db *DB) Delete(id ID) bool { return db.st.Delete(id) }

// Len reports the number of stored objects.
func (db *DB) Len() int { return db.st.Len() }

// MakeSet materializes a set of objects as a HyperFile object holding
// pointer tuples (the paper's representation of sets).
func (db *DB) MakeSet(key string, members []ID) (ID, error) {
	return db.st.MakeSet(key, members)
}

// FetchData retrieves the full data field of tuple i of an object,
// including large values spilled out of the search path.
func (db *DB) FetchData(id ID, i int) (Value, error) { return db.st.FetchData(id, i) }

// Exec runs a filtering query locally over the initial set and returns the
// result set, any retrieved field values, and execution statistics.
func (db *DB) Exec(src string, initial []ID) (IDSet, []Fetch, Stats, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	e := engine.New(compiled, db.st)
	defer e.ReleaseScratch()
	e.AddInitial(initial...)
	stats := e.Run()
	results, fetches := e.TakeResults()
	return object.NewIDSet(results...), fetches, stats, nil
}

// BuildKeywordIndex builds an inverted index over the database's current
// contents.
func (db *DB) BuildKeywordIndex() *index.Keyword { return index.BuildKeyword(db.st) }

// BuildReachIndex precomputes the pointer closure for one pointer category.
func (db *DB) BuildReachIndex(ptrKey string) *index.Reach {
	return index.BuildReach(db.st, ptrKey)
}

// ReachableWith answers "objects referenced directly or indirectly by `from`
// that also carry tuple (class, key)" from the indexes, without traversal.
func ReachableWith(r *index.Reach, k *index.Keyword, from ID, class, key string) IDSet {
	return index.ReachableWith(r, k, from, class, key)
}

// Describe renders an object in the paper's tuple notation.
func Describe(o *Object) string { return fmt.Sprint(o) }
