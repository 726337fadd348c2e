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

// BatchingRow is one workload's off/on comparison in a RunBatching sweep.
type BatchingRow struct {
	// Workload names the row (tree_aligned, tree_scattered, chain, ...).
	Workload string `json:"workload"`
	Machines int    `json:"machines"`
	// StructureMachines pins the logical graph; when it differs from
	// Machines the same graph is scattered over more sites than it was
	// generated for, so structurally "local" pointers cross machines and
	// repeat destinations — the case batching exists for.
	StructureMachines int    `json:"structure_machines"`
	Pointer           string `json:"pointer"`

	DerefMsgsOff   int `json:"deref_msgs_off"`
	DerefMsgsOn    int `json:"deref_msgs_on"`
	DerefEntriesOn int `json:"deref_entries_on"`
	BatchedOn      int `json:"derefs_batched_on"`
	SuppressedOn   int `json:"derefs_suppressed_on"`
	// MsgRatio is DerefMsgsOff / DerefMsgsOn (higher = batching helps);
	// 1.0 when the workload offers nothing to coalesce.
	MsgRatio float64 `json:"msg_ratio"`

	AvgRTOffSec float64 `json:"avg_rt_off_sec"`
	AvgRTOnSec  float64 `json:"avg_rt_on_sec"`
	// Speedup is AvgRTOffSec / AvgRTOnSec in simulated time.
	Speedup float64 `json:"speedup"`

	// ResultsMatch records that every query returned byte-identical sorted
	// result ids in both modes; false fails the whole run.
	ResultsMatch bool `json:"results_match"`
}

// BatchingResult is the machine-checkable record behind BENCH_batching.json.
type BatchingResult struct {
	BatchSize int           `json:"batch_size"`
	Objects   int           `json:"objects"`
	Queries   int           `json:"queries"`
	Seed      int64         `json:"seed"`
	Rows      []BatchingRow `json:"rows"`
}

// JSON renders the result as indented JSON with a trailing newline.
func (r *BatchingResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Row returns the named row, or nil.
func (r *BatchingResult) Row(name string) *BatchingRow {
	for i := range r.Rows {
		if r.Rows[i].Workload == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// batchingWorkloads are the RunBatching rows. The aligned tree is the honest
// negative control: the root's m-1 remote dereferences all go to distinct
// machines, so there is nothing to coalesce and the ratio stays ~1. The
// scattered tree places a 3-machine graph on 9 sites (the device of
// experiment E6's "identical graph" comparison), turning each structurally
// local subtree into cross-site traffic with heavily repeated destinations.
var batchingWorkloads = []struct {
	name      string
	machines  int
	structure int
	pointer   string
}{
	{"tree_aligned", 9, 9, "Tree"},
	{"tree_scattered", 9, 3, "Tree"},
	{"chain", 9, 9, "Chain"},
	{"rand05", 9, 9, "Rand05"},
	{"rand50", 9, 9, "Rand50"},
}

// RunBatching measures deref batching off vs on over the standard workloads:
// message counts, simulated response times, and result-set equality on every
// query. batchSize <= 0 defaults to 8 (the acceptance point).
func RunBatching(cfg Config, batchSize int) (*BatchingResult, error) {
	if batchSize <= 0 {
		batchSize = 8
	}
	out := &BatchingResult{
		BatchSize: batchSize, Objects: cfg.Objects, Queries: cfg.Queries, Seed: cfg.Seed,
	}
	for _, w := range batchingWorkloads {
		row, err := runBatchingRow(cfg, w.name, w.machines, w.structure, w.pointer, batchSize)
		if err != nil {
			return nil, fmt.Errorf("batching %s: %w", w.name, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func runBatchingRow(cfg Config, name string, machines, structure int, pointer string, batchSize int) (*BatchingRow, error) {
	bedOff, err := newBed(cfg, machines, structure, cluster.Options{})
	if err != nil {
		return nil, err
	}
	bedOn, err := newBed(cfg, machines, structure, cluster.Options{Tuning: site.Tuning{DerefBatch: batchSize}})
	if err != nil {
		return nil, err
	}
	row := &BatchingRow{
		Workload: name, Machines: machines, StructureMachines: structure,
		Pointer: pointer, ResultsMatch: true,
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	n := cfg.Queries
	if n <= 0 {
		n = 1
	}
	var totOff, totOn time.Duration
	for q := 0; q < n; q++ {
		body := workload.ClosureQuery(pointer, "Rand10", 1+rng.Intn(10))
		resOff, rtOff, err := bedOff.c.Exec(1, body, []object.ID{bedOff.d.Root})
		if err != nil {
			return nil, err
		}
		resOn, rtOn, err := bedOn.c.Exec(1, body, []object.ID{bedOn.d.Root})
		if err != nil {
			return nil, err
		}
		if len(resOff.IDs) != len(resOn.IDs) {
			row.ResultsMatch = false
		} else {
			for i := range resOff.IDs {
				if resOff.IDs[i] != resOn.IDs[i] {
					row.ResultsMatch = false
					break
				}
			}
		}
		totOff += rtOff
		totOn += rtOn
	}
	stOff, stOn := bedOff.c.TotalStats(), bedOn.c.TotalStats()
	row.DerefMsgsOff = stOff.DerefsSent
	row.DerefMsgsOn = stOn.DerefsSent
	row.DerefEntriesOn = stOn.DerefEntriesSent
	row.BatchedOn = stOn.DerefsBatched
	row.SuppressedOn = stOn.DerefsSuppressed
	if stOn.DerefsSent > 0 {
		row.MsgRatio = float64(stOff.DerefsSent) / float64(stOn.DerefsSent)
	} else if stOff.DerefsSent == 0 {
		row.MsgRatio = 1
	}
	row.AvgRTOffSec = secs(totOff / time.Duration(n))
	row.AvgRTOnSec = secs(totOn / time.Duration(n))
	if row.AvgRTOnSec > 0 {
		row.Speedup = row.AvgRTOffSec / row.AvgRTOnSec
	}
	return row, nil
}

// RunA8 is the deref-batch-size ablation: the scattered-tree and Rand05
// workloads at batch sizes 1..16, reported as message counts and simulated
// response times relative to the unbatched protocol.
func RunA8(cfg Config) (*Report, error) {
	r := newReport("A8", "ablation: remote-dereference batch size",
		"the paper sends one object id per query message (~50 ms each); "+
			"batching amortizes the per-message cost the paper identifies as dominant")
	sizes := []int{1, 2, 4, 8, 16}
	for _, w := range []struct {
		name      string
		structure int
		pointer   string
	}{
		{"tree_scattered", 3, "Tree"},
		{"rand05", 9, "Rand05"},
	} {
		base, err := runBatchingRow(cfg, w.name, 9, w.structure, w.pointer, 0)
		if err != nil {
			return nil, err
		}
		r.addf("%-14s unbatched: %5d deref msgs, %6.1fs avg", w.name, base.DerefMsgsOff, base.AvgRTOffSec)
		for _, b := range sizes {
			row, err := runBatchingRow(cfg, w.name, 9, w.structure, w.pointer, b)
			if err != nil {
				return nil, err
			}
			if !row.ResultsMatch {
				return nil, fmt.Errorf("batch size %d changed %s results", b, w.name)
			}
			r.addf("%-14s batch=%-2d : %5d deref msgs (%.2fx), %6.1fs avg (%.2fx)",
				w.name, b, row.DerefMsgsOn, row.MsgRatio, row.AvgRTOnSec, row.Speedup)
			r.set(fmt.Sprintf("%s_b%d_msg_ratio", w.name, b), row.MsgRatio)
			r.set(fmt.Sprintf("%s_b%d_speedup", w.name, b), row.Speedup)
		}
	}
	return r, nil
}
