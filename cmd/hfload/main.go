// Command hfload drives a local HyperFile cluster with open-loop Poisson
// arrivals and verifies the overload-safety contract: at any offered load —
// including well past capacity — every query either answers, returns an
// annotated partial, or is rejected with the typed admission error. Nothing
// hangs, nothing fails untyped, and answered latencies stay inside the
// deadline envelope.
//
// Unlike hfbench's virtual-time experiments this harness runs on the wall
// clock, so latency numbers vary by host; the gates are the bounded claims,
// not the magnitudes.
//
// Usage:
//
//	hfload                          # smoke run, human-readable table
//	hfload -out BENCH_load.json     # also write the machine-readable record
//	hfload -queries 256 -mult 0.5,1,2,4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperfile/internal/bench"
	"hyperfile/internal/leaktest"
	"hyperfile/internal/sim"
)

func main() {
	code := run(os.Args[1:])
	// A clean harness run must not strand goroutines: every query context,
	// site loop, sweeper, and client waiter has to wind down with the
	// cluster. A leak here is exactly the failure the harness hunts.
	if code == 0 {
		if leaked := leaktest.Check(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "hfload: %d goroutine(s) still running after teardown:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// run parses args, runs the harness and returns the exit code.
func run(args []string) int {
	cfg := bench.DefaultLoad()
	fs := flag.NewFlagSet("hfload", flag.ExitOnError)
	fs.IntVar(&cfg.Machines, "machines", cfg.Machines, "cluster size")
	fs.IntVar(&cfg.Objects, "objects", cfg.Objects, "dataset size")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "dataset and arrival-schedule seed")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "per-site live-context bound")
	fs.IntVar(&cfg.AdmissionQueue, "admission-queue", cfg.AdmissionQueue, "per-site admission queue length")
	fs.DurationVar(&cfg.QueryDeadline, "query-deadline", cfg.QueryDeadline, "default per-query budget")
	fs.IntVar(&cfg.Calibration, "calibration", cfg.Calibration, "closed-loop queries for the capacity estimate")
	fs.IntVar(&cfg.Queries, "queries", cfg.Queries, "open-loop arrivals per load point")
	mult := fs.String("mult", "0.5,1,2,4", "offered-load points as multiples of calibrated capacity")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "client-side per-query deadline (the hang bound)")
	fs.BoolVar(&cfg.Chaos, "chaos", cfg.Chaos, "run against the fault-injecting network (drop/dup/delay/reorder)")
	out := fs.String("out", "", "write the JSON record here (empty = stdout only)")
	scenarioOut := fs.String("scenario-out", "",
		"record each load point's exact arrival schedule as a simulator scenario at <prefix>-x<mult>.json (replay with hfsim -run)")
	fs.Parse(args) // ExitOnError: a bad flag exits here

	err := cfg.Tuning.Validate()
	if err == nil {
		cfg.Multipliers, err = parseMultipliers(*mult)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfload:", err)
		return 1
	}

	res, err := bench.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfload:", err)
		return 1
	}
	printResult(res)
	if *out != "" {
		b, err := res.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfload:", err)
			return 1
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hfload:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *scenarioOut != "" {
		// The schedule derives deterministically from (seed, multiplier,
		// calibrated rate), so the recorded spec reproduces the incident's
		// arrivals exactly — in virtual time, under hfsim.
		for _, pt := range res.Points {
			spec := bench.LoadScenario(cfg, pt.Multiplier, pt.TargetQPS)
			b, err := sim.MarshalSpec(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hfload:", err)
				return 1
			}
			path := fmt.Sprintf("%s-x%g.json", *scenarioOut, pt.Multiplier)
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hfload:", err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if err := res.Check(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hfload: GATE FAILED:", err)
		return 1
	}
	fmt.Println("overload gates passed: no hangs, no untyped errors, all latencies inside the deadline envelope")
	return 0
}

func parseMultipliers(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("bad load multiplier %q (want positive numbers, e.g. 0.5,1,2)", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load multipliers given")
	}
	return out, nil
}

func printResult(r *bench.LoadResult) {
	fmt.Printf("cluster: %d machines, %d objects, max-inflight %d, admission-queue %d, deadline %dms\n",
		r.Machines, r.Objects, r.MaxInflight, r.AdmissionQueue, r.QueryDeadlineMS)
	fmt.Printf("calibrated capacity: %.0f qps (closed loop at the admission bound)\n\n", r.CapacityQPS)
	fmt.Printf("%6s %10s %8s %6s %8s %9s %7s %6s %10s %10s %10s\n",
		"load", "target", "offered", "ok", "partial", "rejected", "errors", "hangs", "p50", "p95", "p99")
	for _, p := range r.Points {
		fmt.Printf("%5.1fx %8.0f/s %8d %6d %8d %9d %7d %6d %10s %10s %10s\n",
			p.Multiplier, p.TargetQPS, p.Offered, p.OK, p.Partial, p.Rejected, p.Errors, p.Hangs,
			us(p.P50US), us(p.P95US), us(p.P99US))
	}
	fmt.Println()
}

// us renders a microsecond bucket bound as a human duration.
func us(v uint64) string {
	return time.Duration(v * uint64(time.Microsecond)).Round(10 * time.Microsecond).String()
}
