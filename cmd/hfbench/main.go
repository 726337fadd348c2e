// Command hfbench regenerates the paper's evaluation (section 5): every
// in-text result table, Figure 4, and the ablations of the design decisions
// the paper discusses. All timing runs on the deterministic virtual-time
// simulator with the calibrated cost model, so output is identical across
// hosts and runs.
//
// Usage:
//
//	hfbench                  # run everything, text report
//	hfbench -exp E5          # one experiment
//	hfbench -queries 100     # the paper's full query count per data point
//	hfbench -md > EXPERIMENTS.generated.md
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hyperfile/internal/bench"
	"hyperfile/internal/leaktest"
)

func main() {
	code := run()
	// Teardown check: a clean benchmark run must not strand goroutines — a
	// leak here means some site or transport survived its Close.
	if code == 0 {
		if leaked := leaktest.Check(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "hfbench: %d goroutine(s) still running after teardown:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

func run() int {
	cfg := bench.Default()
	exp := flag.String("exp", "", "run only this experiment id (E1..E9, A1..A4)")
	flag.IntVar(&cfg.Objects, "objects", cfg.Objects, "dataset size (paper: 270)")
	flag.IntVar(&cfg.Queries, "queries", cfg.Queries, "randomized queries per data point (paper: 100)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "dataset seed")
	md := flag.Bool("md", false, "emit Markdown instead of text")
	csv := flag.Bool("csv", false, "emit machine-readable CSV (experiment,key,value) instead of text")
	svg := flag.String("svg", "", "also write Figure 4 as an SVG chart to this path (requires running E5)")
	list := flag.Bool("list", false, "list experiments and exit")
	batching := flag.String("batching", "", "compare deref batching off/on over the standard workloads and write JSON here (runs only this; exits 1 if batching does not cut scattered-tree messages at least 2x or changes any result)")
	batchSize := flag.Int("batch-size", 8, "deref batch size for -batching")
	ledger := flag.String("ledger", "", "run the canonical allocation-ledger suites (one measurement per suite) and write JSON here (runs only this)")
	ledgerBase := flag.String("ledger-baseline", "", "with -ledger: also diff against this committed baseline ledger and exit 1 on any allocation regression beyond the noise bars")
	ledgerText := flag.String("ledger-text", "", "with -ledger: also write the human-readable results table to this path")
	flag.Parse()

	if *ledger != "" {
		return runLedger(*ledger, *ledgerBase, *ledgerText)
	}

	if *batching != "" {
		r, err := bench.RunBatching(cfg, *batchSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		b, err := r.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		if err := os.WriteFile(*batching, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		code := 0
		for _, row := range r.Rows {
			fmt.Fprintf(os.Stderr, "%-15s msgs %5d -> %5d (%.2fx), rt %.1fs -> %.1fs (%.2fx), match=%v\n",
				row.Workload, row.DerefMsgsOff, row.DerefMsgsOn, row.MsgRatio,
				row.AvgRTOffSec, row.AvgRTOnSec, row.Speedup, row.ResultsMatch)
			if !row.ResultsMatch {
				fmt.Fprintf(os.Stderr, "hfbench: batching changed the %s result set\n", row.Workload)
				code = 1
			}
		}
		if tree := r.Row("tree_scattered"); tree == nil || tree.MsgRatio < 2.0 {
			fmt.Fprintln(os.Stderr, "hfbench: batching did not cut scattered-tree Deref messages at least 2x")
			code = 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *batching)
		return code
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var reports []*bench.Report
	if *exp != "" {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "hfbench: unknown experiment %q (try -list)\n", *exp)
			return 1
		}
		r, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		reports = []*bench.Report{r}
	} else {
		var err error
		reports, err = bench.RunAll(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
	}

	if *svg != "" {
		wrote := false
		for _, r := range reports {
			if r.ID != "E5" {
				continue
			}
			chart, err := bench.RenderFigure4SVG(r)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hfbench:", err)
				return 1
			}
			if err := os.WriteFile(*svg, []byte(chart), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hfbench:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *svg)
			wrote = true
		}
		if !wrote {
			fmt.Fprintln(os.Stderr, "hfbench: -svg needs experiment E5 in the run")
			return 1
		}
	}

	if *csv {
		fmt.Println("experiment,key,value")
		for _, r := range reports {
			keys := make([]string, 0, len(r.Values))
			for k := range r.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("%s,%s,%g\n", r.ID, k, r.Values[k])
			}
		}
		return 0
	}
	if *md {
		fmt.Printf("## HyperFile evaluation (objects=%d, queries/point=%d, seed=%d)\n\n",
			cfg.Objects, cfg.Queries, cfg.Seed)
		for _, r := range reports {
			fmt.Println(r.Markdown())
		}
		return 0
	}
	fmt.Printf("HyperFile evaluation — objects=%d queries/point=%d seed=%d\n%s\n",
		cfg.Objects, cfg.Queries, cfg.Seed, strings.Repeat("-", 64))
	for _, r := range reports {
		fmt.Println(r.String())
	}
	return 0
}
