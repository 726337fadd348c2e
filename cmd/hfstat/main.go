// Command hfstat fetches the /debug/hyperfile snapshot of one or more
// servers and renders it for a terminal: each server's counters, gauges and
// latency histograms, then the most recent query traces. Every site keeps the
// spans it produced itself, so a query's cross-site timeline is the merge of
// the traces of every server it touched (site.MergeTraces).
//
// Usage:
//
//	hfstat -addr 127.0.0.1:7071                      # human-readable
//	hfstat -addr 127.0.0.1:7071,127.0.0.1:7072       # merged timelines
//	hfstat -addr 127.0.0.1:7071 -json                # raw snapshot JSON
//	hfstat -addr 127.0.0.1:7071 -traces 3            # show at most 3 traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7071", "debug endpoint addresses (host:port, comma-separated)")
	raw := flag.Bool("json", false, "print the raw JSON snapshot")
	nTraces := flag.Int("traces", 5, "max traces to render (-1 = all)")
	timeout := flag.Duration("timeout", 5*time.Second, "HTTP timeout")
	flag.Parse()

	if err := run(os.Stdout, *addr, *raw, *nTraces, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "hfstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, addrs string, raw bool, nTraces int, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	var snaps []server.DebugSnapshot
	for _, addr := range strings.Split(addrs, ",") {
		resp, err := client.Get(fmt.Sprintf("http://%s/debug/hyperfile", addr))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s/debug/hyperfile: %s", addr, resp.Status)
		}
		if err != nil {
			return err
		}
		if raw {
			if _, err := w.Write(body); err != nil {
				return err
			}
			continue
		}
		var snap server.DebugSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return fmt.Errorf("decoding snapshot of %s: %w", addr, err)
		}
		snaps = append(snaps, snap)
	}
	renderAll(w, snaps, nTraces)
	return nil
}

// render writes the human-readable report of one snapshot.
func render(w io.Writer, snap server.DebugSnapshot, nTraces int) {
	renderAll(w, []server.DebugSnapshot{snap}, nTraces)
}

// renderAll writes each snapshot's metrics, then the traces of all of them
// merged per query. It is deterministic for given snapshots (names sorted),
// which the golden tests rely on.
func renderAll(w io.Writer, snaps []server.DebugSnapshot, nTraces int) {
	rings := make(map[object.SiteID][]site.TraceEntry)
	for _, snap := range snaps {
		// A site name that does not parse keys its ring as site 0, which
		// originates no query: its spans still merge.
		id, _ := strconv.ParseUint(strings.TrimPrefix(snap.Site, "s"), 10, 32)
		rings[object.SiteID(id)] = append(rings[object.SiteID(id)], snap.Traces...)
		fmt.Fprintf(w, "site %s\n", snap.Site)
		if len(snap.Metrics.Counters) > 0 {
			fmt.Fprintln(w, "counters:")
			for _, name := range sortedKeys(snap.Metrics.Counters) {
				fmt.Fprintf(w, "  %-34s %12d\n", name, snap.Metrics.Counters[name])
			}
		}
		if len(snap.Metrics.Gauges) > 0 {
			fmt.Fprintln(w, "gauges:")
			for _, name := range sortedKeys(snap.Metrics.Gauges) {
				fmt.Fprintf(w, "  %-34s %12d\n", name, snap.Metrics.Gauges[name])
			}
		}
		if len(snap.Metrics.Histograms) > 0 {
			fmt.Fprintln(w, "histograms:")
			for _, name := range sortedKeys(snap.Metrics.Histograms) {
				h := snap.Metrics.Histograms[name]
				fmt.Fprintf(w, "  %-34s count=%d mean=%.1f p50<=%d p99<=%d\n",
					name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
			}
		}
	}

	all := site.MergeTraces(rings)
	traces := all
	if nTraces >= 0 && len(traces) > nTraces {
		traces = traces[len(traces)-nTraces:] // most recent
	}
	if len(traces) == 0 {
		return
	}
	fmt.Fprintf(w, "traces (%d of %d):\n", len(traces), len(all))
	for _, tr := range traces {
		status := "complete"
		if tr.Partial {
			status = "partial"
		}
		fmt.Fprintf(w, "  %s  %s  %s  %d spans\n",
			tr.QID, status, tr.Duration.Round(time.Microsecond), len(tr.Spans))
		for _, sp := range tr.Spans {
			fmt.Fprintf(w, "    hop %d  %s  filter %d  in %d  out %d  %dus\n",
				sp.Hop, sp.Site, sp.Filter, sp.In, sp.Out, sp.DurationUS)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
