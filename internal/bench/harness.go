// Package bench regenerates every result of the paper's evaluation
// (section 5) on the discrete-event simulator, plus ablations of the design
// decisions the paper discusses. Each experiment produces a Report with
// human-readable rows and machine-checkable values; cmd/hfbench prints them
// and the repository's bench_test.go asserts the qualitative shapes.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/object"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Objects is the dataset size the queries traverse (the paper used 270).
	Objects int
	// Queries is the number of randomized queries averaged per data point
	// (the paper used 100).
	Queries int
	// Seed drives dataset generation and key selection.
	Seed int64
	// Cost is the virtual-time cost model.
	Cost sim.CostModel
}

// Default returns the configuration matching the paper's setup, with a
// smaller query count to keep full harness runs quick (raise Queries to 100
// to match the paper exactly; the averages are stable well before that).
func Default() Config {
	return Config{Objects: 270, Queries: 20, Seed: 1, Cost: sim.Paper()}
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	// Paper quotes the corresponding numbers from the paper.
	Paper string
	// Lines are formatted result rows.
	Lines []string
	// Values holds machine-checkable measurements (seconds unless the key
	// says otherwise).
	Values map[string]float64
}

func newReport(id, title, paper string) *Report {
	return &Report{ID: id, Title: title, Paper: paper, Values: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) set(key string, v float64) { r.Values[key] = v }

// String renders the report as a text block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	for _, l := range r.Lines {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the report as a Markdown section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "*Paper:* %s\n\n", r.Paper)
	}
	b.WriteString("```\n")
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}

// Experiment is one reproducible evaluation item.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "base costs (per object / per result / per remote message)", RunE1},
		{"E2", "single-site transitive closure (tree and chain)", RunE2},
		{"E3", "worst-case delay: chain pointers, distributed", RunE3},
		{"E4", "high parallelism: tree pointers, distributed", RunE4},
		{"E5", "Figure 4: response time vs pointer locality", RunE5},
		{"E6", "selectivity crossover: distributed vs single site", RunE6},
		{"E7", "dataset-size scaling", RunE7},
		{"E8", "distributed result sets (section 5 refinement)", RunE8},
		{"E9", "message cost vs the file-server baseline", RunE9},
		{"A1", "ablation: local vs global (oracle) mark table", RunA1},
		{"A3", "ablation: reachability+keyword index vs query traversal", RunA3},
		{"A4", "ablation: breadth-first vs depth-first working set", RunA4},
		{"A5", "ablation: shared-memory multiprocessor processing", RunA5},
		{"A6", "ablation: result-message batch size", RunA6},
		{"A7", "ablation: concurrent query load", RunA7},
		{"A8", "ablation: remote-dereference batch size", RunA8},
	}
}

// Get looks an experiment up by id (case-insensitive).
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, returning the reports in order. The
// first error aborts the run.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, e := range All() {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("bench %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// --- shared helpers ---

// testbed is a generated cluster + dataset.
type testbed struct {
	c *cluster.SimCluster
	d *workload.Dataset
}

// newBed builds a sim cluster of `machines` sites carrying a dataset whose
// logical structure was generated for `structure` machines. The sites run
// the paper's protocol, one object id per Deref (site.Unbatched), unless
// opts sets a batch size: these experiments reproduce the paper's tables.
func newBed(cfg Config, machines, structure int, opts cluster.Options) (*testbed, error) {
	opts.Cost = cfg.Cost
	if opts.DerefBatch == 0 {
		opts.DerefBatch = site.Unbatched
	}
	c := cluster.NewSim(machines, opts)
	d, err := workload.Build(c, workload.Spec{
		N:                 cfg.Objects,
		Machines:          machines,
		StructureMachines: structure,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &testbed{c: c, d: d}, nil
}

// avgClosure runs cfg.Queries closure queries over ptrKey, selecting on
// class with rotating keys, and returns the mean response time. For "Common"
// all queries select everything; for RandN classes keys cycle through the
// space so the 100 queries are "comparable but not identical", as in the
// paper.
func (tb *testbed) avgClosure(cfg Config, ptrKey, class string) (time.Duration, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	var total time.Duration
	n := cfg.Queries
	if n <= 0 {
		n = 1
	}
	for q := 0; q < n; q++ {
		var body string
		switch class {
		case "Common":
			body = workload.ClosureQueryKeyword(ptrKey, "Common", "all")
		case "Unique":
			body = workload.ClosureQueryKeyword(ptrKey, "Unique", fmt.Sprintf("u%d", rng.Intn(cfg.Objects)))
		default:
			space := 10
			switch class {
			case "Rand100":
				space = 100
			case "Rand1000":
				space = 1000
			}
			body = workload.ClosureQuery(ptrKey, class, 1+rng.Intn(space))
		}
		_, rt, err := tb.c.Exec(1, body, []object.ID{tb.d.Root})
		if err != nil {
			return 0, err
		}
		total += rt
	}
	return total / time.Duration(n), nil
}

func secs(d time.Duration) float64 { return d.Seconds() }

// fmtClasses lists locality classes low to high.
func fmtClasses() []float64 {
	cs := append([]float64(nil), workload.DefaultRandClasses...)
	sort.Float64s(cs)
	return cs
}
