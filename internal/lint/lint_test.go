package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches corpus expectations: `// want "regexp"` expects a
// diagnostic on the same line; `// want(-1) "regexp"` expects one on the
// line the given offset away (for diagnostics that land on lines where a
// trailing comment would change the program, like ignore directives).
var wantRe = regexp.MustCompile(`// want(?:\(([+-]?\d+)\))? "([^"]*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants scans every .go file under root for want comments.
func collectWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1])
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, m[2], err)
				}
				wants = append(wants, &expectation{file: path, line: line + offset, pattern: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestCorpus runs every analyzer over the testdata corpus module and checks
// the diagnostics against the want comments: each want must be hit, and no
// diagnostic may appear without one. Positive and negative cases per
// analyzer live in the corpus packages.
func TestCorpus(t *testing.T) {
	root := filepath.Join("testdata", "corpus")
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	diags := Run(mod, All())
	wants := collectWants(t, root)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was never reported", w.file, w.line, w.pattern)
		}
	}
}

// TestRepoIsClean runs the full analyzer set over this repository: the tree
// must stay lint-clean (this is the same gate CI runs via cmd/hflint).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check")
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(mod, All()) {
		t.Errorf("%s", d.String())
	}
}

// TestAnalyzerRegistry pins the analyzer set: names must be unique,
// non-empty, and documented — the ignore machinery and -checks flag key off
// them — and the set is exactly the list below, in reporting order, so
// adding or deleting an analyzer is an explicit edit here.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{
		"lockhold", "baresleep", "goorphan", "lockorder", "creditflow", "pairwise",
	}
	var names []string
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is missing a name or doc", a)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("analyzers = %q, want %q", names, want)
	}
}
