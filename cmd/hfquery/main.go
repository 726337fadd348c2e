// Command hfquery submits filtering queries to a running HyperFile service.
// Like the paper's experimental client it runs at its own endpoint, separate
// from every server; results come back directly from the originating site.
//
// Usage:
//
//	hfquery -servers "1=127.0.0.1:7001,2=127.0.0.1:7002" -origin 1 \
//	    -initial s1:1 'S [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T'
//
// With -script FILE, queries are read one per line instead (lines starting
// with '#' are comments); each line may be prefixed with "initial-ids |".
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/server"
	"hyperfile/internal/wire"
)

func main() {
	servers := flag.String("servers", "", "server list: id=host:port,...")
	origin := flag.Uint("origin", 1, "originating site id")
	clientID := flag.Uint("client", 1000, "this client's site id")
	listen := flag.String("listen", "127.0.0.1:0", "client listen address")
	initial := flag.String("initial", "", "comma-separated initial object ids (s1:1,s1:2)")
	script := flag.String("script", "", "file of queries, one per line")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query deadline")
	budget := flag.Duration("budget", 0, "server-side time budget riding the Submit; expired queries return annotated partials (0 = none)")
	stats := flag.Bool("stats", false, "print each server's counters and exit")
	explain := flag.Bool("explain", false, "print the query's execution plan and exit (no servers needed)")
	flag.Parse()

	if *explain {
		if err := explainQuery(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "hfquery:", err)
			os.Exit(1)
		}
		return
	}
	if *budget < 0 {
		fmt.Fprintln(os.Stderr, "hfquery: -budget is negative")
		os.Exit(1)
	}
	if err := run(os.Stdout, *servers, *origin, *clientID, *listen, *initial, *script, *budget, *timeout, *stats, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "hfquery:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, servers string, origin, clientID uint, listen, initial, script string, budget, timeout time.Duration, stats bool, args []string) error {
	addrs, err := parseServers(servers)
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no servers given (use -servers)")
	}
	cl, err := server.NewClient(object.SiteID(clientID), listen)
	if err != nil {
		return err
	}
	defer cl.Close()
	for id, addr := range addrs {
		cl.AddServer(id, addr)
	}
	if stats {
		// Administration mode: print each server's counters (the request
		// carries the client's address, so servers need no configuration).
		for id := range addrs {
			resp, err := cl.Stats(id, timeout)
			if err != nil {
				return fmt.Errorf("stats from %v: %w", id, err)
			}
			fmt.Fprintf(w, "site %s: %d objects, %d live query contexts\n",
				resp.Site, resp.Objects, resp.Contexts)
			for _, c := range resp.Counters {
				fmt.Fprintf(w, "  %-34s %d\n", c.Name, c.Value)
			}
		}
		return nil
	}

	// Servers learn the client's address from the Submit message itself, so
	// no server-side configuration is needed for clients.
	defaultInitial, err := parseIDs(initial)
	if err != nil {
		return err
	}

	exec := func(body string, init []object.ID) error {
		start := time.Now()
		cm, err := cl.ExecBudget(object.SiteID(origin), body, init, budget, timeout)
		if errors.Is(err, server.ErrTimeout) && cm != nil {
			// The deadline passed but the abort recovered a partial answer;
			// print it rather than throw it away.
			fmt.Fprintf(w, "timed out after %v; partial answer recovered:\n", timeout)
			printResult(w, body, cm, time.Since(start))
			return nil
		}
		if errors.Is(err, server.ErrRejected) {
			// Admission control refused the query outright; say so in the
			// server's words rather than a bare exit.
			return fmt.Errorf("rejected by site %d: %w", origin, err)
		}
		if err != nil {
			return err
		}
		printResult(w, body, cm, time.Since(start))
		return nil
	}

	if script != "" {
		f, err := os.Open(script)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			init := defaultInitial
			if ids, rest, ok := strings.Cut(text, "|"); ok && !strings.Contains(ids, "(") {
				parsed, err := parseIDs(strings.TrimSpace(ids))
				if err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
				init, text = parsed, strings.TrimSpace(rest)
			}
			if err := exec(text, init); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
		}
		return sc.Err()
	}

	if len(args) == 0 {
		return fmt.Errorf("no query given")
	}
	return exec(strings.Join(args, " "), defaultInitial)
}

// explainQuery prints the compiled plan of the query in args.
func explainQuery(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no query given")
	}
	q, err := query.Parse(strings.Join(args, " "))
	if err != nil {
		return err
	}
	compiled, err := query.Compile(q)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, compiled.Explain())
	return err
}

func printResult(w io.Writer, body string, cm *wire.Complete, rt time.Duration) {
	fmt.Fprintf(w, "query: %s\n", body)
	flags := ""
	if cm.Partial {
		flags = " (PARTIAL)"
		if cm.Reason != "" {
			flags = fmt.Sprintf(" (PARTIAL: %s)", cm.Reason)
		}
	}
	if cm.Distributed {
		flags += " (distributed set)"
	}
	fmt.Fprintf(w, "%d results in %v%s\n", cm.Count, rt.Round(time.Millisecond), flags)
	if len(cm.Unreachable) > 0 {
		names := make([]string, len(cm.Unreachable))
		for i, s := range cm.Unreachable {
			names[i] = s.String()
		}
		fmt.Fprintf(w, "unreachable sites: %s\n", strings.Join(names, ", "))
	}
	for _, id := range cm.IDs {
		fmt.Fprintf(w, "  %s\n", id)
	}
	for _, f := range cm.Fetches {
		fmt.Fprintf(w, "  %s = %s  (from %s)\n", f.Var, f.Val, f.From)
	}
}

func parseServers(spec string) (map[object.SiteID]string, error) {
	out := make(map[object.SiteID]string)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad server %q (want id=host:port)", part)
		}
		n, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad server id %q: %v", idStr, err)
		}
		out[object.SiteID(n)] = addr
	}
	return out, nil
}

func parseIDs(spec string) ([]object.ID, error) {
	if spec == "" {
		return nil, nil
	}
	var out []object.ID
	for _, part := range strings.Split(spec, ",") {
		id, err := object.ParseID(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}
