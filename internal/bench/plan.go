package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
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

// PlanResult is the machine-checkable record behind BENCH_plan.json.
type PlanResult struct {
	Objects int            `json:"objects"`
	Queries int            `json:"queries"`
	Seed    int64          `json:"seed"`
	Cache   []PlanCacheRow `json:"cache"`
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

// RunPlan measures the plan cache: compile counts for a repeated and a
// distinct-body stream, with result-set equality checked on every query.
func RunPlan(cfg Config) (*PlanResult, error) {
	out := &PlanResult{Objects: cfg.Objects, Queries: cfg.Queries, Seed: cfg.Seed}
	for _, repeated := range []bool{true, false} {
		row, err := runPlanCacheRow(cfg, repeated)
		if err != nil {
			return nil, fmt.Errorf("plan cache %s: %w", row.Workload, err)
		}
		out.Cache = append(out.Cache, *row)
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
