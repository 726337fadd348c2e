package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// WorkersRow is one pool width's measurement in a RunWorkers sweep.
type WorkersRow struct {
	Workers int `json:"workers"`
	// Steps is the cluster-wide engine item count for the batch (processed +
	// mark-skipped + missing); the answer-equality check below pins that the
	// pool only reorders this work, it never changes the answers.
	Steps int `json:"steps"`
	// MakespanSec is the virtual-time span from batch submission to the last
	// Complete.
	MakespanSec float64 `json:"makespan_sec"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// Speedup is the workers=1 makespan over this row's makespan.
	Speedup float64 `json:"speedup"`
	// ResultsMatch records that every query in the batch returned the same
	// sorted result ids as the workers=1 run; false fails the whole run.
	ResultsMatch bool `json:"results_match"`
}

// WorkersResult is the machine-checkable record behind BENCH_workers.json.
type WorkersResult struct {
	Machines          int   `json:"machines"`
	StructureMachines int   `json:"structure_machines"`
	Objects           int   `json:"objects"`
	Queries           int   `json:"queries"`
	Seed              int64 `json:"seed"`

	Rows []WorkersRow `json:"rows"`

	// The negative control: a single query gains nothing from a wider pool,
	// because per-context pinning keeps the paper's one-item-at-a-time order
	// per query. SingleRatio is the workers=1 single-query makespan over the
	// widest pool's; a ratio well above 1 means a context overlapped itself.
	SingleMakespan1Sec float64 `json:"single_makespan_w1_sec"`
	SingleMakespanNSec float64 `json:"single_makespan_wmax_sec"`
	SingleRatio        float64 `json:"single_ratio"`
}

// JSON renders the result as indented JSON with a trailing newline.
func (r *WorkersResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Row returns the row for the given pool width, or nil.
func (r *WorkersResult) Row(workers int) *WorkersRow {
	for i := range r.Rows {
		if r.Rows[i].Workers == workers {
			return &r.Rows[i]
		}
	}
	return nil
}

// workersWidths are the pool widths RunWorkers sweeps.
var workersWidths = []int{1, 2, 4, 8}

// RunWorkers measures worker-pool stepping throughput on the scattered-tree
// workload (a 3-machine graph placed on 9 sites, the same device as the
// batching bench): a batch of concurrent tree-closure queries is submitted at
// one instant and the simulator's per-site step slots model the pool, so
// makespans are exact virtual time and identical across hosts. Each width's
// per-query result sets must match the workers=1 run, and a single-query run
// at the widest pool is the pinning negative control.
func RunWorkers(cfg Config) (*WorkersResult, error) {
	const (
		machines  = 9
		structure = 3
	)
	n := cfg.Queries
	if n <= 0 {
		n = 1
	}
	out := &WorkersResult{
		Machines: machines, StructureMachines: structure,
		Objects: cfg.Objects, Queries: n, Seed: cfg.Seed,
	}

	runBatch := func(workers, queries int) ([]*cluster.Result, time.Duration, int, error) {
		bed, err := newBed(cfg, machines, structure, cluster.Options{Tuning: site.Tuning{Workers: workers}})
		if err != nil {
			return nil, 0, 0, err
		}
		batch := make([]cluster.BatchQuery, queries)
		for i := range batch {
			batch[i] = cluster.BatchQuery{
				Origin:  object.SiteID(i%machines + 1),
				Body:    workload.ClosureQuery("Tree", "Rand10", 1+i%10),
				Initial: []object.ID{bed.d.Root},
			}
		}
		res, _, err := bed.c.ExecBatch(batch)
		if err != nil {
			return nil, 0, 0, err
		}
		eng := bed.c.TotalStats().Engine
		return res, bed.c.Now(), eng.Processed + eng.Skipped + eng.Missing, nil
	}

	var baseRes []*cluster.Result
	var baseSpan time.Duration
	for _, w := range workersWidths {
		res, span, steps, err := runBatch(w, n)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		row := WorkersRow{Workers: w, Steps: steps, MakespanSec: secs(span), ResultsMatch: true}
		if row.MakespanSec > 0 {
			row.StepsPerSec = float64(steps) / row.MakespanSec
		}
		if w == 1 {
			baseRes, baseSpan = res, span
		}
		if span > 0 {
			row.Speedup = secs(baseSpan) / secs(span)
		}
		for i := range res {
			if !sameIDs(baseRes[i].IDs, res[i].IDs) {
				row.ResultsMatch = false
				break
			}
		}
		out.Rows = append(out.Rows, row)
	}

	wMax := workersWidths[len(workersWidths)-1]
	_, s1, _, err := runBatch(1, 1)
	if err != nil {
		return nil, fmt.Errorf("single query workers=1: %w", err)
	}
	_, sN, _, err := runBatch(wMax, 1)
	if err != nil {
		return nil, fmt.Errorf("single query workers=%d: %w", wMax, err)
	}
	out.SingleMakespan1Sec = secs(s1)
	out.SingleMakespanNSec = secs(sN)
	if sN > 0 {
		out.SingleRatio = secs(s1) / secs(sN)
	}
	return out, nil
}
