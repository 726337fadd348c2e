// Command perf is HyperFile's wall-clock benchmark: for each named workload
// it generates a seeded dataset, boots three real hyperfiled processes with
// default flags over loopback TCP, drives them in closed loop through the
// production client, checks every answer against an oracle and prints every
// metric by name. See README.md in this directory.
//
//	go run -C perf hyperfile/perf                       # all five workloads, writes perf/results/
//	go run -C perf hyperfile/perf -workload chain -seed 7 -seconds 10 -trace 1
//	go run -C perf hyperfile/perf -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json this program works from: the
// metric names and units it must print, and the regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named attaches units to the computed values of every listed metric; a
// listed metric with no value is an error, never a silent gap.
func named(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is listed in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// leftovers is what a run must not leave behind, whichever way it exits.
var leftovers struct {
	once    sync.Once
	workDir string
}

// cleanUp kills every child process and removes the work directory.
func cleanUp() {
	leftovers.once.Do(func() {
		children.killAll()
		if leftovers.workDir != "" {
			_ = os.RemoveAll(leftovers.workDir)
		}
	})
}

func main() {
	code := 1
	defer func() {
		if r := recover(); r != nil {
			cleanUp()
			fmt.Fprintf(os.Stderr, "perf: panic: %v\n%s", r, debug.Stack())
			os.Exit(2)
		}
		os.Exit(code)
	}()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return
	}
	code = 0
}

func run() error {
	workload := flag.String("workload", "", "run this one workload and print the result line (default: all five, written to results/)")
	seed := flag.Int64("seed", 1, "seed for the dataset and the query order")
	seconds := flag.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny datasets, for the end-to-end test")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against the bounds of BENCHMARK.json")
	traceOut := flag.String("trace-out", "", "write the traced replay's spans to this file as JSON lines")
	flag.Parse()

	root, perfDir, err := moduleDirs()
	if err != nil {
		return err
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files, got %d arguments", flag.NArg())
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	single := *workload != ""

	// Every exit path kills the children and removes the work directory: a
	// normal return, an error, a signal, a panic and the watchdog.
	defer cleanUp()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	watchdog := 10 * time.Minute
	if single {
		// One workload must answer well inside the caller's 180 s limit.
		watchdog = 170 * time.Second
	}
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintln(os.Stderr, "perf: caught", s)
		case <-time.After(watchdog):
			fmt.Fprintln(os.Stderr, "perf: watchdog: still running after", watchdog)
		}
		cleanUp()
		os.Exit(3)
	}()

	// All files the run writes live under the checkout's build directory.
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(base, "perf-")
	if err != nil {
		return err
	}
	leftovers.workDir = workDir
	env := &runEnv{workDir: workDir, traceOut: *traceOut}
	t0 := time.Now()
	if env.bin, err = buildServer(workDir); err != nil {
		return err
	}
	env.buildS = time.Since(t0).Seconds()

	all := workloads(*smoke)
	if single {
		w, err := findWorkload(all, *workload)
		if err != nil {
			return err
		}
		setups := setupRepeats
		if *trace == 1 {
			setups = 1
		}
		res, err := runWorkload(env, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, setups)
		if err != nil {
			return err
		}
		printWorkload(os.Stdout, spec, res)
		return printResultLine(spec, res, *trace == 1)
	}

	rep := newReport(root, *seed, *seconds, *smoke)
	for _, w := range all {
		res, err := runWorkload(env, w, *seed, time.Duration(*seconds)*time.Second, true, setupRepeats)
		if err != nil {
			return err
		}
		printWorkload(os.Stdout, spec, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	path, err := rep.write(filepath.Join(perfDir, "results"))
	if err != nil {
		return err
	}
	fmt.Println("results written to", path)
	for _, res := range rep.Workloads {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d queries failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// printResultLine prints the one JSON object the benchmark driver reads as
// the last line of standard output.
func printResultLine(spec *benchSpec, res *workloadResult, traced bool) error {
	defs, values := spec.EndToEnd, res.EndToEnd
	if traced {
		defs, values = spec.PerLayer, res.PerLayer
	}
	ms, err := named(defs, values)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
