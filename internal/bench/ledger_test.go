package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

func mkLedger(entries ...LedgerEntry) *Ledger {
	return &Ledger{Schema: LedgerSchema, Entries: entries}
}

func entry(suite string, allocs, bytes int64) LedgerEntry {
	return LedgerEntry{Suite: suite, NsPerOp: 100, AllocsPerOp: allocs, BytesPerOp: bytes}
}

// TestLedgerDiffBaseline exercises the noise-bar logic in both directions
// plus the stale-baseline notes.
func TestLedgerDiffBaseline(t *testing.T) {
	base := mkLedger(
		entry("codec_decode", 100, 10000),
		entry("engine_step", 40, 4000),
		entry("old_suite", 5, 100),
	)
	cur := mkLedger(
		entry("codec_decode", 110, 10500), // within ±15% / ±30%
		entry("engine_step", 60, 4100),    // 60 > 40+6: regression
		entry("new_suite", 5, 100),
	)
	failures, notes := cur.DiffBaseline(base)
	if len(failures) != 1 || !strings.Contains(failures[0], "engine_step") {
		t.Fatalf("expected one engine_step regression, got %v", failures)
	}
	var sawOld, sawNew bool
	for _, n := range notes {
		sawOld = sawOld || strings.Contains(n, "old_suite")
		sawNew = sawNew || strings.Contains(n, "new_suite")
	}
	if !sawOld || !sawNew {
		t.Fatalf("expected stale-baseline notes for old_suite and new_suite, got %v", notes)
	}

	// Improvements never fail, only note.
	improved := mkLedger(
		entry("codec_decode", 50, 5000),
		entry("engine_step", 40, 4000),
		entry("old_suite", 5, 100),
	)
	failures, notes = improved.DiffBaseline(base)
	if len(failures) != 0 {
		t.Fatalf("improvement must not fail the gate: %v", failures)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "codec_decode") && strings.Contains(n, "improved") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an improvement note, got %v", notes)
	}

	// The absolute floor: tiny counts moving by ±1 are noise, not signal.
	tiny := mkLedger(entry("codec_encode", 1, 64))
	tinyBase := mkLedger(entry("codec_encode", 0, 0))
	if failures, _ := tiny.DiffBaseline(tinyBase); len(failures) != 0 {
		t.Fatalf("±%d-alloc floor should absorb a 1-alloc move: %v", allocNoiseFloor, failures)
	}
}

// TestLedgerRun runs the real suites once and checks every suite recorded a
// measurement and the ledger round-trips through JSON — CI decodes the
// committed baseline with the same types.
func TestLedgerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks take ~5s; skipped in -short")
	}
	l := RunLedger()
	if len(l.Entries) != len(ledgerSuites) {
		t.Fatalf("got %d entries, want %d", len(l.Entries), len(ledgerSuites))
	}
	for _, e := range l.Entries {
		if e.Iterations <= 0 || e.NsPerOp <= 0 {
			t.Fatalf("suite %s recorded nothing: %+v", e.Suite, e)
		}
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Ledger
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if failures, _ := back.DiffBaseline(l); len(failures) != 0 {
		t.Fatalf("self-diff must be clean: %v", failures)
	}
	t.Logf("\n%s", l.Table())
}
