package main

import (
	"fmt"
	"io"
)

// worsening is how far candidate is worse than base as a share of base:
// positive means worse, in the direction the metric counts as worse.
func worsening(base, candidate float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - candidate) / base
	}
	return (candidate - base) / base
}

// compareReports applies the bounds of BENCHMARK.json to two runs. It prints
// one row per workload and end-to-end metric and returns an error naming
// every metric of the candidate that is outside its bound, every workload
// whose failed share rose, and every workload missing from either file.
func compareReports(spec *benchSpec, base, cand *report, w io.Writer) error {
	var bad []string
	fmt.Fprintf(w, "%-15s %-26s %14s %14s %9s %7s\n", "workload", "metric", "base", "candidate", "worse by", "bound")
	for _, wl := range spec.Workloads {
		a, b := base.workload(wl.Name), cand.workload(wl.Name)
		if a == nil || b == nil {
			bad = append(bad, wl.Name+": missing from one of the files")
			continue
		}
		for _, d := range spec.EndToEnd {
			va, oka := a.EndToEnd[d.Name]
			vb, okb := b.EndToEnd[d.Name]
			if !oka || !okb {
				bad = append(bad, fmt.Sprintf("%s %s: missing from one of the files", wl.Name, d.Name))
				continue
			}
			worse := worsening(va, vb, d.Better)
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				bad = append(bad, fmt.Sprintf("%s %s: %.4g -> %.4g %s, worse by %.1f%% (bound %.0f%%)",
					wl.Name, d.Name, va, vb, d.Unit, worse*100, d.Bound*100))
			}
			fmt.Fprintf(w, "%-15s %-26s %14.4f %14.4f %8.1f%% %6.0f%%%s\n",
				wl.Name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
		fa := float64(a.Failed) / float64(max(a.Attempted, 1))
		fb := float64(b.Failed) / float64(max(b.Attempted, 1))
		if fb > fa {
			bad = append(bad, fmt.Sprintf("%s failed_share: %.4g -> %.4g", wl.Name, fa, fb))
		}
		fmt.Fprintf(w, "%-15s %-26s %14.4g %14.4g\n", wl.Name, "failed_share", fa, fb)
	}
	if len(bad) > 0 {
		msg := fmt.Sprintf("%d regression(s):", len(bad))
		for _, b := range bad {
			msg += "\n  " + b
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintln(w, "within bounds")
	return nil
}

func compareFiles(spec *benchSpec, basePath, candPath string, w io.Writer) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	cand, err := readReport(candPath)
	if err != nil {
		return err
	}
	return compareReports(spec, base, cand, w)
}
