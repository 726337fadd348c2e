package server

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hyperfile/internal/metrics"
)

// filterSteps matches the per-filter step counters, which
// docs/OBSERVABILITY.md names by one template.
var filterSteps = regexp.MustCompile(`^site_filter_\d+_steps$`)

// TestObservabilityDocNamesEveryInstrument boots a server and a client, runs
// one query, and checks that the "Metric names" tables of
// docs/OBSERVABILITY.md name exactly the counters, gauges and histograms
// their registries hold, each of the right kind: a row marked "(gauge)" or
// "(histogram)" names that kind, any other row counters.
func TestObservabilityDocNamesEveryInstrument(t *testing.T) {
	servers, stores, client := testDeployment(t, 1)
	ids := loadServerRing(t, stores, 6)
	if _, err := client.Exec(1, tcpClosure, ids[:1], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]string)
	note := func(name, kind string) {
		if filterSteps.MatchString(name) {
			name = "site_filter_<i>_steps"
		}
		registered[name] = kind
	}
	for _, reg := range []*metrics.Registry{servers[0].Metrics(), client.Metrics()} {
		snap := reg.Snapshot()
		for name := range snap.Counters {
			note(name, "counter")
		}
		for name := range snap.Gauges {
			note(name, "gauge")
		}
		for name := range snap.Histograms {
			note(name, "histogram")
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := documentedInstruments(t, string(doc))
	for name, kind := range registered {
		if got, ok := documented[name]; !ok {
			t.Errorf("%s %s is registered but docs/OBSERVABILITY.md does not name it", kind, name)
		} else if got != kind {
			t.Errorf("docs/OBSERVABILITY.md names %s a %s; it is a %s", name, got, kind)
		}
	}
	for name, kind := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md names %s %s, which no registry holds", kind, name)
		}
	}
}

// documentedInstruments reads the first column of every table row in the
// "Metric names" section: each backticked name in it, with its kind.
func documentedInstruments(t *testing.T, doc string) map[string]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## Metric names\n")
	if !ok {
		t.Fatal(`docs/OBSERVABILITY.md has no "## Metric names" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := make(map[string]string)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue
		}
		kind := "counter"
		switch {
		case strings.Contains(cells[1], "(gauge)"):
			kind = "gauge"
		case strings.Contains(cells[1], "(histogram)"):
			kind = "histogram"
		}
		parts := strings.Split(cells[1], "`")
		for i := 1; i < len(parts); i += 2 {
			names[parts[i]] = kind
		}
	}
	if len(names) == 0 {
		t.Fatal(`docs/OBSERVABILITY.md's "Metric names" tables name nothing`)
	}
	return names
}
