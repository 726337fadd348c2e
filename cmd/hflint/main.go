// Command hflint runs HyperFile's project-specific static analyzers over the
// module and reports diagnostics as file:line:col messages (or JSON with
// -json). It exits 0 when the tree is clean, 1 when any diagnostic survives
// suppression, and 2 when the module cannot be loaded or type-checked.
//
//	go run ./cmd/hflint ./...
//	go run ./cmd/hflint -json ./... | jq .
//	go run ./cmd/hflint -checks lockhold,goorphan ./...
//	go run ./cmd/hflint -stale-ignores ./...
//
// Findings are suppressed in source with
//
//	// lint:ignore <check> <reason>
//
// on the flagged line or the line above it; the reason is mandatory. See
// docs/LINT.md for the analyzer catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hyperfile/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	staleIgnores := flag.Bool("stale-ignores", false, "report lint:ignore directives that suppress nothing (always runs every analyzer)")
	root := flag.String("root", "", "module root to analyze (default: current module)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hflint [flags] [./...]\n\nruns HyperFile's static analyzers over the whole module.\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hflint:", err)
		os.Exit(2)
	}
	if *staleIgnores {
		// Staleness is only meaningful against the full analyzer set: a
		// directive for a check that did not run would look unused.
		if *checks != "" {
			fmt.Fprintln(os.Stderr, "hflint: -stale-ignores cannot be combined with -checks")
			os.Exit(2)
		}
		analyzers = lint.All()
	}

	dir := *root
	if dir == "" {
		dir, err = moduleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hflint:", err)
			os.Exit(2)
		}
	}

	mod, err := lint.Load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hflint: load:", err)
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	if *staleIgnores {
		diags = lint.Stale(mod, analyzers)
	} else {
		diags = lint.Run(mod, analyzers)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "hflint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -checks flag against the registry.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (use -list to see available checks)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:strings.LastIndex(dir, "/")+1]
		parent = strings.TrimSuffix(parent, "/")
		if parent == dir || parent == "" {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
