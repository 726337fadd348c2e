package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is one full run of the benchmark: the file written to results/ and
// the input of -compare.
type report struct {
	Timestamp  string            `json:"timestamp"`
	GitSHA     string            `json:"git_sha"`
	Dirty      bool              `json:"dirty"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Network    string            `json:"network"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newReport(root string, seed int64, seconds int, smoke bool) *report {
	r := &report{
		Timestamp:  time.Now().UTC().Format("20060102T150405Z"),
		GitSHA:     "nogit",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Network:    "loopback",
		Seed:       seed, Seconds: seconds, Smoke: smoke,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		r.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "--short=12", "HEAD"); err == nil && sha != "" {
		r.GitSHA = sha
		if st, err := git("status", "--porcelain"); err == nil && st != "" {
			r.Dirty = true
		}
	}
	return r
}

// write stores the report as perf_<UTCtimestamp>_<gitsha>[-dirty].json.
func (r *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("perf_%s_%s", r.Timestamp, r.GitSHA)
	if r.Dirty {
		name += "-dirty"
	}
	path := filepath.Join(dir, name+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// printWorkload prints one workload's metrics by name with their units.
// Metrics measured but not listed in BENCHMARK.json are printed too, marked
// as unlisted, so nothing measured is hidden.
func printWorkload(w io.Writer, spec *benchSpec, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  window %gs  clients %d  samples %d  failed %d/%d\n",
		res.Workload, res.Seed, res.Seconds, res.Clients, res.Samples, res.Failed, res.Attempted)
	section := func(title string, defs []metricDef, values map[string]float64) {
		if values == nil {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		listed := map[string]bool{}
		for _, d := range defs {
			listed[d.Name] = true
			if v, ok := values[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		var extra []string
		for name := range values {
			if !listed[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			fmt.Fprintf(w, "  %-36s %14.4f (unlisted)\n", name, values[name])
		}
	}
	section("end to end", spec.EndToEnd, res.EndToEnd)
	section("per layer", spec.PerLayer, res.PerLayer)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED query %d: %s  [%s]\n", f.Index, f.Reason, f.Body)
	}
}
