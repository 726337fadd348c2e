package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"hyperfile/internal/bench"
)

// runLedger measures the canonical allocation suites, writes the timestamped
// JSON ledger, and — when a baseline is given — gates on no allocation
// regression beyond the noise bars documented in benchmarks/README.md. ns/op
// is recorded but never gated.
func runLedger(out, baselinePath, textPath string) int {
	fmt.Fprintln(os.Stderr, "running allocation-ledger suites (each benchmarks for ~1s)...")
	l := bench.RunLedger()
	l.Timestamp = time.Now().UTC().Format(time.RFC3339)
	l.GitSHA = gitSHA()

	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfbench:", err)
		return 1
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hfbench:", err)
		return 1
	}

	table := l.Table()
	fmt.Fprint(os.Stderr, table)
	if textPath != "" {
		header := fmt.Sprintf("hyperfile allocation ledger — %s — %s — %s\n\n",
			l.Timestamp, l.GitSHA, l.GoVersion)
		if err := os.WriteFile(textPath, []byte(header+table), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", textPath)
	}

	code := 0
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfbench:", err)
			return 1
		}
		var base bench.Ledger
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "hfbench: %s: %v\n", baselinePath, err)
			return 1
		}
		failures, notes := l.DiffBaseline(&base)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "hfbench: note:", n)
		}
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "hfbench: baseline regression:", f)
		}
		if len(failures) > 0 {
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "baseline %s (%s): no allocation regressions\n",
				baselinePath, base.GitSHA)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return code
}

// gitSHA stamps the ledger with the commit it measured: CI's GITHUB_SHA when
// set, otherwise the local HEAD, otherwise "unknown" (the ledger is still
// valid — the stamp is provenance, not data).
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
