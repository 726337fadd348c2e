package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// ScenarioQuery is one scheduled query's outcome in a scenario run.
type ScenarioQuery struct {
	Spec        sim.Query
	QID         wire.QueryID
	Results     int
	Digest      string // 16-hex-char digest of the sorted result ids
	Partial     bool
	Unreachable []object.SiteID
	Rejected    bool
	RejectWhy   string
	// Lost marks a query whose originator crashed: no answer ever reaches
	// the client, the incident every other outcome is measured against.
	Lost      bool
	Submitted time.Duration
	Completed time.Duration
}

// ScenarioRun is a compiled and executed scenario: per-query outcomes plus
// the recorded event trace (whose rendering is the golden/replay artifact).
type ScenarioRun struct {
	Spec    *sim.Scenario
	Queries []ScenarioQuery
	Trace   *sim.Trace
	// Final is the virtual time when the last event drained; Messages the
	// inter-site message total. Wall is host time — informational only, it
	// never enters the trace.
	Final    time.Duration
	Messages int
	Wall     time.Duration
}

// RunScenario compiles a scenario spec into a deterministic virtual-time run:
// build the cluster and dataset, compile the topology into the link-latency
// matrix, schedule the failure and query events at their exact virtual
// timestamps, and drive the event loop dry. Equal specs produce byte-
// identical traces on every host.
func RunScenario(spec *sim.Scenario) (*ScenarioRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()

	c := NewSim(spec.Sites, Options{Cost: sim.Paper(), Tuning: spec.Exec})
	matrix, err := spec.LatencyMatrix(c.cost.Latency)
	if err != nil {
		return nil, err
	}
	c.setLinkLatency(matrix)

	// Dataset: the paper generator for protocol-faithful small scenarios,
	// the bulk-loaded regions generator at scale.
	var roots func(region int) (object.ID, error)
	switch spec.Workload.Kind {
	case "paper":
		d, err := workload.Build(c, workload.Spec{
			N: spec.Workload.Objects, Machines: spec.Sites,
			StructureMachines: spec.Workload.StructureMachines,
			Seed:              spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		roots = func(int) (object.ID, error) { return d.Root, nil }
	case "regions":
		rd, err := workload.BuildRegions(c, workload.RegionSpec{
			Objects:    spec.Workload.Objects,
			Sites:      spec.Sites,
			RegionSize: spec.Workload.RegionSize,
			LocalProb:  spec.Workload.LocalProb,
			HomeSite:   func(r int) int { return spec.Workload.HomeSite(r, spec.Sites) },
			SelSpace:   spec.Workload.SelSpace,
			Seed:       spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		roots = func(region int) (object.ID, error) {
			if region < 0 {
				region = 0
			}
			if region >= rd.Regions() {
				return object.NilID, fmt.Errorf("scenario %s: region %d out of range (%d regions)",
					spec.Name, region, rd.Regions())
			}
			return rd.Roots[region], nil
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown workload kind %q", spec.Name, spec.Workload.Kind)
	}

	trace := &sim.Trace{Spec: spec}
	if spec.TraceMessages {
		c.msgObserver = func(at time.Duration, from, to object.SiteID, m wire.Msg) {
			trace.Record(at, fmt.Sprintf("msg from=%d to=%d kind=%s", from, to, m.Kind()))
		}
	}

	// Failure schedule: each fault fires as a loop event at its exact
	// virtual timestamp, interleaved with protocol events in time order.
	for _, f := range spec.Failures {
		f := f
		at := time.Duration(f.AtUS) * time.Microsecond
		switch f.Kind {
		case "partition":
			a := toSiteIDs(f.A)
			b := toSiteIDs(f.B)
			if len(b) == 0 {
				b = complementSites(spec.Sites, f.A)
			}
			c.loop.At(at, func() {
				c.partition(a, b)
				trace.Record(c.loop.Now(), fmt.Sprintf("partition a=%s b=%s", siteList(a), siteList(b)))
			})
		case "heal":
			c.loop.At(at, func() {
				c.healAll()
				trace.Record(c.loop.Now(), "heal")
			})
		case "crash":
			crashed := object.SiteID(f.Site)
			c.loop.At(at, func() {
				c.SetDown(crashed, true)
				trace.Record(c.loop.Now(), fmt.Sprintf("crash site=%d", crashed))
			})
			// The failure detector fires at every live site one detection
			// interval later: engaged originators force-complete partial
			// answers, everyone suppresses dereferences to the corpse.
			detect := time.Duration(f.DetectUS) * time.Microsecond
			if detect == 0 {
				detect = 100 * time.Millisecond
			}
			c.loop.At(at+detect, func() {
				for _, id := range c.ids {
					ss := c.sites[id]
					if id == crashed || ss.down {
						continue
					}
					for _, env := range ss.s.PeerDown(crashed) {
						c.deliver(id, env.To, env.Msg, c.loop.Now()+c.lat(id, env.To))
					}
					ss.kick() // force-completion may have admitted queued work
				}
				trace.Record(c.loop.Now(), fmt.Sprintf("detect site=%d", crashed))
			})
		}
	}

	// Query schedule.
	queries, err := spec.GenQueries()
	if err != nil {
		return nil, err
	}
	out := make([]ScenarioQuery, len(queries))
	for i, q := range queries {
		root, err := roots(q.Region)
		if err != nil {
			return nil, err
		}
		at := time.Duration(q.AtUS) * time.Microsecond
		qid := c.ScheduleQuery(at, object.SiteID(q.Origin), q.Body, []object.ID{root})
		out[i] = ScenarioQuery{Spec: q, QID: qid, Submitted: at}
		trace.Record(at, fmt.Sprintf("submit q=%d origin=%d region=%d body=%q", i, q.Origin, q.Region, q.Body))
	}

	// Drive the loop dry; then abort whatever wedged (crashed participants
	// hold credit forever) for the partial answer, exactly as a client
	// timeout would, and drain again.
	c.loop.Run()
	if c.err != nil {
		return nil, c.err
	}
	aborted := false
	for i := range out {
		q := &out[i]
		if c.completes[q.QID] != nil || c.rejects[q.QID] != nil {
			continue
		}
		origin := c.sites[object.SiteID(q.Spec.Origin)]
		if origin.down {
			continue // originator crashed: the answer is lost, not late
		}
		for _, env := range origin.s.Abort(q.QID) {
			c.deliver(origin.id, env.To, env.Msg, c.loop.Now()+c.lat(origin.id, env.To))
		}
		aborted = true
	}
	if aborted {
		c.loop.Run()
		if c.err != nil {
			return nil, c.err
		}
	}

	// Outcomes.
	final := c.loop.Now()
	completed, rejected, lost := 0, 0, 0
	for i := range out {
		q := &out[i]
		switch {
		case c.completes[q.QID] != nil:
			cm := c.completes[q.QID]
			delete(c.completes, q.QID)
			res, err := fromComplete(cm)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: query %d: %w", spec.Name, i, err)
			}
			q.Results = len(res.IDs)
			q.Digest = IDsDigest(res.IDs)
			q.Partial = res.Partial
			q.Unreachable = res.Unreachable
			q.Completed = c.completedAt[q.QID]
			completed++
			trace.Record(q.Completed, fmt.Sprintf("complete q=%d n=%d digest=%s partial=%v unreachable=%s",
				i, q.Results, q.Digest, q.Partial, siteList(q.Unreachable)))
		case c.rejects[q.QID] != nil:
			rej := c.rejects[q.QID]
			delete(c.rejects, q.QID)
			q.Rejected = true
			q.RejectWhy = rej.Reason
			q.Completed = c.completedAt[q.QID]
			rejected++
			trace.Record(q.Completed, fmt.Sprintf("reject q=%d reason=%q", i, rej.Reason))
		default:
			q.Lost = true
			q.Completed = final
			lost++
			trace.Record(final, fmt.Sprintf("lost q=%d origin=%d", i, q.Spec.Origin))
		}
	}
	msgs := c.Messages()
	trace.Record(final, fmt.Sprintf("end msgs=%d completed=%d rejected=%d lost=%d",
		msgs, completed, rejected, lost))

	return &ScenarioRun{
		Spec:     spec,
		Queries:  out,
		Trace:    trace,
		Final:    final,
		Messages: msgs,
		Wall:     time.Since(wallStart),
	}, nil
}

func toSiteIDs(nums []int) []object.SiteID {
	out := make([]object.SiteID, len(nums))
	for i, n := range nums {
		out[i] = object.SiteID(n)
	}
	return out
}

// complementSites returns every site not in group (1-based numbering).
func complementSites(n int, group []int) []object.SiteID {
	in := make(map[int]bool, len(group))
	for _, g := range group {
		in[g] = true
	}
	var out []object.SiteID
	for s := 1; s <= n; s++ {
		if !in[s] {
			out = append(out, object.SiteID(s))
		}
	}
	return out
}

// siteList renders site ids as "1,2,3" ("-" when empty) for trace lines.
func siteList(sites []object.SiteID) string {
	if len(sites) == 0 {
		return "-"
	}
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = strconv.Itoa(int(s))
	}
	return strings.Join(parts, ",")
}

// IDsDigest fingerprints a sorted result-id list: equal digests mean byte-
// identical answers without embedding thousands of ids in the trace.
func IDsDigest(ids []object.ID) string {
	h := sha256.New()
	var buf [12]byte
	for _, id := range ids {
		binary.BigEndian.PutUint32(buf[:4], uint32(id.Birth))
		binary.BigEndian.PutUint64(buf[4:], id.Seq)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
