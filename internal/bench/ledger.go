package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hyperfile/internal/cluster"
	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/query"
	"hyperfile/internal/sim"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// The benchmark ledger is the canonical record of the hot-path allocation
// profile: a small set of named suites, with ns/op, allocs/op and B/op
// captured per suite. Runs are written to benchmarks/ as timestamped JSON; CI
// re-runs the suites and gates on one property: allocs/op and B/op must not
// regress past the committed benchmarks/BASELINE.json beyond the documented
// noise bars.
//
// Wall-clock ns/op is recorded but never gated — it is machine-dependent and
// CI runners are noisy; allocation counts are not.

// LedgerEntry is one suite's measurement.
type LedgerEntry struct {
	Suite       string  `json:"suite"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Ledger is one full suite run. Timestamp and GitSHA are stamped by the
// caller (cmd/hfbench) so the measurement core stays deterministic.
type Ledger struct {
	Schema    int           `json:"schema"`
	Timestamp string        `json:"timestamp"`
	GitSHA    string        `json:"git_sha"`
	GoVersion string        `json:"go_version"`
	Entries   []LedgerEntry `json:"entries"`
}

const (
	// LedgerSchema versions the JSON layout for future readers. Schema 1
	// carried two variants per suite (the map/copy forms beside the packed,
	// pooled and borrowed ones); schema 2 has one entry per suite.
	LedgerSchema = 2

	// Noise bars for the baseline diff. Allocation counts are nearly
	// deterministic (only map-growth amortization and pool warmup move
	// them), so the bars are tight; B/op additionally absorbs size-class
	// rounding. An absolute slack floor keeps tiny counts from tripping
	// on ±1.
	allocNoiseFrac  = 0.15
	allocNoiseFloor = 2
	bytesNoiseFrac  = 0.30
	bytesNoiseFloor = 128
)

// ledgerSuites are the named suites, in run order.
var ledgerSuites = []struct {
	name string
	run  func(b *testing.B)
}{
	{"engine_step", benchEngineStep},
	{"codec_encode", benchCodecEncode},
	{"codec_decode", benchCodecDecode},
	{"e2e_scattered_tree", benchScatteredTree},
}

// RunLedger measures every suite and returns the populated ledger (without
// Timestamp/GitSHA, which the caller stamps).
func RunLedger() *Ledger {
	l := &Ledger{Schema: LedgerSchema, GoVersion: runtime.Version()}
	for _, s := range ledgerSuites {
		r := testing.Benchmark(s.run)
		l.Entries = append(l.Entries, LedgerEntry{
			Suite:       s.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return l
}

// --- suite bodies ---

// ledgerPlacer adapts a single store to workload.Build.
type ledgerPlacer struct{ st *store.Store }

func (p ledgerPlacer) Sites() []object.SiteID                      { return []object.SiteID{1} }
func (p ledgerPlacer) Store(object.SiteID) *store.Store            { return p.st }
func (p ledgerPlacer) Put(_ object.SiteID, o *object.Object) error { return p.st.Put(o) }

// benchEngineStep measures one full local closure (build engine, seed root,
// run to exhaustion) over a 120-object dataset — the per-query engine cost a
// site pays. Scratch is released after each run, the way the site layer does
// when a context finishes, so the pools actually cycle.
func benchEngineStep(b *testing.B) {
	st := store.New(1)
	d, err := workload.Build(ledgerPlacer{st}, workload.Spec{N: 120, Machines: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	compiled := query.MustCompile(workload.ClosureQuery("Rand80", "Rand10", 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(compiled, st)
		e.AddInitial(d.Root)
		e.Run()
		e.ReleaseScratch()
	}
}

// ledgerDeref is the ~80-byte deref message both codec suites ship — the
// dominant inter-site message class.
func ledgerDeref() *wire.Deref {
	return &wire.Deref{
		QID: wire.QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body:   workload.ClosureQuery("Tree", "Rand10", 5),
		ObjIDs: []object.ID{{Birth: 3, Seq: 99}, {Birth: 2, Seq: 41}}, Start: 2,
		Token: make([]byte, 12),
	}
}

// benchCodecEncode measures encoding the deref by appending into a pooled
// buffer, as the transport's send paths do.
func benchCodecEncode(b *testing.B) {
	m := ledgerDeref()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.GetBuf()
		data := wire.EncodeTo((*buf)[:0], m)
		*buf = data[:0]
		wire.PutBuf(buf)
	}
}

// benchCodecDecode measures decoding the deref with its string and byte
// fields borrowed in place, as a server's inbound path does.
func benchCodecDecode(b *testing.B) {
	data := wire.Encode(ledgerDeref())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeBorrowed(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScatteredTree measures a full distributed closure on the simulator: 3
// sites, tree pointers scattered across them, deref batching on — the
// end-to-end shape the paper's Figure 4 midpoint uses.
func benchScatteredTree(b *testing.B) {
	c := cluster.NewSim(3, cluster.Options{Cost: sim.Free(), Tuning: site.Tuning{DerefBatch: 8}})
	d, err := workload.Build(c, workload.Spec{
		N: 120, Machines: 3, StructureMachines: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	body := workload.ClosureQuery("Tree", "Rand10", 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Exec(1, body, []object.ID{d.Root}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- gate ---

func (l *Ledger) find(suite string) *LedgerEntry {
	for i := range l.Entries {
		if l.Entries[i].Suite == suite {
			return &l.Entries[i]
		}
	}
	return nil
}

// DiffBaseline compares this run against a committed baseline. failures are
// allocation regressions beyond the noise bars (CI-fatal); notes flag
// suites that improved past the bar or exist on only one side (the baseline
// is stale and should be regenerated — informational, never fatal).
func (l *Ledger) DiffBaseline(base *Ledger) (failures, notes []string) {
	for i := range base.Entries {
		be := &base.Entries[i]
		cur := l.find(be.Suite)
		if cur == nil {
			notes = append(notes, be.Suite+": in baseline but not in this run")
			continue
		}
		check := func(metric string, got, want int64, frac float64, floor int64) {
			bar := int64(float64(want)*frac + 0.5)
			bar = max(bar, floor)
			switch {
			case got > want+bar:
				failures = append(failures, fmt.Sprintf(
					"%s: %s regressed: %d vs baseline %d (noise bar ±%d)",
					be.Suite, metric, got, want, bar))
			case got < want-bar:
				notes = append(notes, fmt.Sprintf(
					"%s: %s improved past the noise bar (%d vs %d) — refresh benchmarks/BASELINE.json",
					be.Suite, metric, got, want))
			}
		}
		check("allocs/op", cur.AllocsPerOp, be.AllocsPerOp, allocNoiseFrac, allocNoiseFloor)
		check("B/op", cur.BytesPerOp, be.BytesPerOp, bytesNoiseFrac, bytesNoiseFloor)
	}
	for i := range l.Entries {
		e := &l.Entries[i]
		if base.find(e.Suite) == nil {
			notes = append(notes, e.Suite+
				": new suite not in baseline — refresh benchmarks/BASELINE.json")
		}
	}
	return failures, notes
}

// Table renders the ledger as an aligned text table, suites in run order.
func (l *Ledger) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %12s %12s\n", "suite", "ns/op", "B/op", "allocs/op")
	for _, e := range l.Entries {
		fmt.Fprintf(&b, "%-22s %14.1f %12d %12d\n",
			e.Suite, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	return b.String()
}
