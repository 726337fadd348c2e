package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// PlanCacheRow is one workload's plan cache record: a query stream run
// against one cluster whose sites cache compiled physical plans, as every
// site does.
type PlanCacheRow struct {
	// Workload names the row. "repeated_body" submits one body over and over
	// (the favorable case: every re-execution hits at every site);
	// "distinct_bodies" rotates the selection key so every body is new (the
	// honest negative control: the cache can win nothing).
	Workload string `json:"workload"`
	Machines int    `json:"machines"`
	Queries  int    `json:"queries"`

	// InvolvedSites counts the sites that created a context for the stream.
	InvolvedSites int `json:"involved_sites"`
	Compiles      int `json:"plan_compiles"`
	CacheHits     int `json:"plan_cache_hits"`

	// ColdRTSec is the first query's simulated response time, AvgRTSec the
	// mean over the stream.
	ColdRTSec float64 `json:"cold_rt_sec"`
	AvgRTSec  float64 `json:"avg_rt_sec"`

	// ResultsMatch records that every query of a repeated body returned the
	// byte-identical sorted result ids of its first (cold) run; false fails
	// the whole run.
	ResultsMatch bool `json:"results_match"`
}

// PushdownRow is one workload's index-pushdown off/on comparison.
type PushdownRow struct {
	// Workload names the row. "select_scan" runs a bare selection over the
	// whole database (pure probes prune the initial set without a single
	// tuple scan); "closure_keyword" is the paper's traversal query, where
	// the trailing keyword selection probes instead of scanning.
	Workload string `json:"workload"`
	Machines int    `json:"machines"`
	Queries  int    `json:"queries"`

	TuplesScannedOff int `json:"tuples_scanned_off"`
	TuplesScannedOn  int `json:"tuples_scanned_on"`
	IndexProbesOn    int `json:"index_probes_on"`
	InitialPrunedOn  int `json:"initial_pruned_on"`
	// ScanRatio is TuplesScannedOff / TuplesScannedOn (higher = pushdown
	// helps); when the pushed-down run scans nothing at all the ratio is
	// reported against 1 scanned tuple.
	ScanRatio float64 `json:"scan_ratio"`

	AvgRTOffSec float64 `json:"avg_rt_off_sec"`
	AvgRTOnSec  float64 `json:"avg_rt_on_sec"`

	ResultsMatch bool `json:"results_match"`
}

// PlanResult is the machine-checkable record behind BENCH_plan.json.
type PlanResult struct {
	Objects  int            `json:"objects"`
	Queries  int            `json:"queries"`
	Seed     int64          `json:"seed"`
	Cache    []PlanCacheRow `json:"cache"`
	Pushdown []PushdownRow  `json:"pushdown"`
}

// JSON renders the result as indented JSON with a trailing newline.
func (r *PlanResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CacheRow returns the named cache row, or nil.
func (r *PlanResult) CacheRow(name string) *PlanCacheRow {
	for i := range r.Cache {
		if r.Cache[i].Workload == name {
			return &r.Cache[i]
		}
	}
	return nil
}

// PushdownRowByName returns the named pushdown row, or nil.
func (r *PlanResult) PushdownRowByName(name string) *PushdownRow {
	for i := range r.Pushdown {
		if r.Pushdown[i].Workload == name {
			return &r.Pushdown[i]
		}
	}
	return nil
}

// RunPlan measures the planner layer: plan cache compile counts for a
// repeated and a distinct-body stream, and index-pushdown tuple-scan counts
// off vs on, with result-set equality checked on every query.
func RunPlan(cfg Config) (*PlanResult, error) {
	out := &PlanResult{Objects: cfg.Objects, Queries: cfg.Queries, Seed: cfg.Seed}
	for _, repeated := range []bool{true, false} {
		row, err := runPlanCacheRow(cfg, repeated)
		if err != nil {
			return nil, fmt.Errorf("plan cache %s: %w", row.Workload, err)
		}
		out.Cache = append(out.Cache, *row)
	}
	for _, w := range []string{"select_scan", "closure_keyword"} {
		row, err := runPushdownRow(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("pushdown %s: %w", w, err)
		}
		out.Pushdown = append(out.Pushdown, *row)
	}
	return out, nil
}

func runPlanCacheRow(cfg Config, repeated bool) (*PlanCacheRow, error) {
	const machines = 9
	row := &PlanCacheRow{
		Workload: "repeated_body", Machines: machines, ResultsMatch: true,
	}
	if !repeated {
		row.Workload = "distinct_bodies"
	}
	bed, err := newBed(cfg, machines, machines, cluster.Options{})
	if err != nil {
		return row, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	n := cfg.Queries
	if n <= 0 {
		n = 1
	}
	row.Queries = n
	var cold []object.ID
	var tot time.Duration
	for q := 0; q < n; q++ {
		key := 5
		if !repeated {
			// A fresh key every round: no body ever repeats, so every
			// cache lookup misses and the cache pays without winning.
			key = 1 + (q*101+rng.Intn(7))%1000
		}
		body := workload.ClosureQuery("Tree", "Rand10", key)
		res, rt, err := bed.c.Exec(1, body, []object.ID{bed.d.Root})
		if err != nil {
			return row, err
		}
		if q == 0 {
			cold = res.IDs
			row.ColdRTSec = secs(rt)
		} else if repeated && !sameIDs(res.IDs, cold) {
			row.ResultsMatch = false
		}
		tot += rt
	}
	for _, id := range bed.c.Sites() {
		if st := bed.c.SiteStats(id); st.PlanCompiles+st.PlanCacheHits > 0 {
			row.InvolvedSites++
		}
	}
	st := bed.c.TotalStats()
	row.Compiles = st.PlanCompiles
	row.CacheHits = st.PlanCacheHits
	row.AvgRTSec = secs(tot / time.Duration(n))
	return row, nil
}

func runPushdownRow(cfg Config, name string) (*PushdownRow, error) {
	const machines = 9
	bedOff, err := newBed(cfg, machines, machines, cluster.Options{})
	if err != nil {
		return nil, err
	}
	bedOn, err := newBed(cfg, machines, machines, cluster.Options{Tuning: site.Tuning{Index: true}})
	if err != nil {
		return nil, err
	}
	row := &PushdownRow{Workload: name, Machines: machines, ResultsMatch: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	n := cfg.Queries
	if n <= 0 {
		n = 1
	}
	row.Queries = n
	var totOff, totOn time.Duration
	for q := 0; q < n; q++ {
		var body string
		var initOff, initOn []object.ID
		switch name {
		case "select_scan":
			// Bare selection over the whole database: with the index on,
			// the leading pure probe prunes every non-matching object from
			// the initial set before it enters the working set.
			body = fmt.Sprintf(`S (Rand10, %d, ?) -> T`, 1+rng.Intn(10))
			initOff, initOn = bedOff.d.IDs, bedOn.d.IDs
		default:
			body = workload.ClosureQueryKeyword("Tree", "Unique", fmt.Sprintf("u%d", rng.Intn(cfg.Objects)))
			initOff = []object.ID{bedOff.d.Root}
			initOn = []object.ID{bedOn.d.Root}
		}
		resOff, rtOff, err := bedOff.c.Exec(1, body, initOff)
		if err != nil {
			return nil, err
		}
		resOn, rtOn, err := bedOn.c.Exec(1, body, initOn)
		if err != nil {
			return nil, err
		}
		if !sameIDs(resOff.IDs, resOn.IDs) {
			row.ResultsMatch = false
		}
		totOff += rtOff
		totOn += rtOn
	}
	stOff, stOn := bedOff.c.TotalStats(), bedOn.c.TotalStats()
	row.TuplesScannedOff = stOff.Engine.TuplesScanned
	row.TuplesScannedOn = stOn.Engine.TuplesScanned
	row.IndexProbesOn = stOn.Engine.IndexProbes
	row.InitialPrunedOn = stOn.Engine.InitialPruned
	den := stOn.Engine.TuplesScanned
	if den == 0 {
		den = 1
	}
	row.ScanRatio = float64(stOff.Engine.TuplesScanned) / float64(den)
	row.AvgRTOffSec = secs(totOff / time.Duration(n))
	row.AvgRTOnSec = secs(totOn / time.Duration(n))
	return row, nil
}

func sameIDs(a, b []object.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
