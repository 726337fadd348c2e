package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hyperfile/internal/object"
)

var updateCorpus = flag.Bool("update-corpus", false, "write committed fuzz seeds that are missing under testdata/fuzz (never rewrites one)")

// compatSeeds is the committed compatibility corpus: one named frame stream
// per wire-format generation we promise to keep decoding. Each payload is a
// message layout that once went over the wire — current layouts with the
// trailing optionals present (ClientID, BudgetUS, BodyHash, Reason, Cum),
// the truncated pre-optional layouts from before each field existed, the
// legacy single-id KDeref frame, the frames that carried trace spans, and
// one frame per kind with every field set. go test loads these through FuzzFrame's seed corpus, so
// the coverage survives CI fuzz-cache loss.
func compatSeeds() map[string][]byte {
	qid := QueryID{Origin: 1, Seq: 3}
	id := object.ID{Birth: 2, Seq: 9}

	submitFull := Encode(&Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 250_000, ClientID: 1 << 40})
	submitZero := Encode(&Submit{QID: qid, Client: 7, Body: "S -> T"})
	derefFull := Encode(&Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id}, Token: []byte{1}, BodyHash: []byte{0xAB, 0xCD}, BudgetUS: 99})
	derefZero := Encode(&Deref{QID: qid, Origin: 1, ObjIDs: []object.ID{id}, Token: []byte{1}})
	completeFull := Encode(&Complete{QID: qid, Count: 1, Partial: true, Reason: "cancelled by client"})
	completeZero := Encode(&Complete{QID: qid, Count: 1})
	seedFull := Encode(&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid, BudgetUS: 400})
	seedZero := Encode(&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid})

	payloads := map[string][]byte{
		"submit_clientid": submitFull,
		// Pre-ClientID generation: the frame ends after BudgetUS.
		"submit_pre_clientid": submitZero[:len(submitZero)-1],
		// Pre-budget generation: the frame ends after InitialFromResultOf.
		"submit_pre_budget": submitZero[:len(submitZero)-2],
		"deref_bodyhash":    derefFull,
		// Pre-BodyHash generation: the frame ends after Hop.
		"deref_pre_bodyhash": derefZero[:len(derefZero)-2],
		// Single-id KDeref layout, never emitted anymore but still decoded.
		"deref_legacy_single": legacyDerefFrame(qid, 1, "S -> T", id, 1, []int{2}, []byte{1}, 2),
		"reject":              Encode(&Reject{QID: qid, Reason: "admission queue full"}),
		"cancel":              Encode(&Cancel{QID: qid, Reason: "deadline expired"}),
		"complete_reason":     completeFull,
		// Pre-Reason generation: the frame ends after the span list.
		"complete_pre_reason": completeZero[:len(completeZero)-1],
		"seed_budget":         seedFull,
		// Pre-budget generation: the frame ends after Hop.
		"seed_pre_budget": seedZero[:len(seedZero)-1],
	}

	// Later generations. A frame's Seq is its rank within its generation's
	// map, so additions go in a new map: inserting into payloads would
	// renumber, and so rewrite, the frames frozen above.
	ackCum := Encode(&Ack{Seq: 9, Cum: 7})
	ackZero := Encode(&Ack{Seq: 9})
	cumulativeAcks := map[string][]byte{
		"ack_cumulative": ackCum,
		// Pre-cumulative generation: the frame ends after Seq.
		"ack_pre_cumulative": ackZero[:len(ackZero)-1],
	}

	carriers := spanCarriers()
	derefSpans := map[string][]byte{
		// A Deref handing credit on carried the spans that came with it.
		"deref_spans": carriers["deref_spans"].frame,
	}

	// Every kind with every field set: the kinds no generation above pins,
	// and the fields the frames above leave zero, so each message layout
	// has one frozen frame that exercises all of it.
	id2 := object.ID{Birth: 300, Seq: 1 << 33}
	everyField := map[string][]byte{
		"submit_every_field": Encode(&Submit{QID: qid, Client: 7, ClientAddr: "127.0.0.1:9999",
			Body: "S -> T", Initial: []object.ID{id, id2}, InitialFromResultOf: QueryID{Origin: 1, Seq: 2},
			BudgetUS: 250_000, ClientID: 1 << 40}),
		"deref_every_field": carriers["deref_every_field"].frame,
		"seed_every_field": Encode(&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: QueryID{Origin: 1, Seq: 2},
			Token: []byte{1}, Hop: 3, BudgetUS: 400}),
		"result":               carriers["result"].frame,
		"complete_every_field": carriers["complete_every_field"].frame,
		"control":              carriers["control"].frame,
		"finish":               Encode(&Finish{QID: qid, Retain: true}),
		"stats_req":            Encode(&StatsReq{Seq: 77, ClientAddr: "127.0.0.1:8080"}),
		"stats_resp":           Encode(&StatsResp{Seq: 77, Site: 3, Contexts: 2, Objects: 90_000, Counters: []Counter{{Name: "derefs_sent", Value: 12}, {Name: "completed", Value: 1 << 20}}}),
		"migrate":              Encode(&Migrate{Seq: 5, ID: id2, To: 3, Client: 9, ClientAddr: "c:1", Hops: 2}),
		"migrate_data":         Encode(&MigrateData{Seq: 5, Obj: []byte(`{"id":"s2:9"}`), Client: 9, ClientAddr: "c:1"}),
		"migrate_done":         Encode(&MigrateDone{ID: id2, NewSite: 3}),
		"migrated":             Encode(&Migrated{Seq: 5, ID: id2, OK: true, Err: "moved twice"}),
		"heartbeat":            Encode(&Heartbeat{Seq: 1 << 14}),
	}

	seeds := make(map[string][]byte, len(payloads)+len(cumulativeAcks)+len(derefSpans)+len(everyField))
	var seq uint64
	for _, generation := range []map[string][]byte{payloads, cumulativeAcks, derefSpans, everyField} {
		for _, name := range sortedKeys(generation) {
			seq++
			seeds[name] = AppendFrame(nil, Frame{From: 3, Epoch: 1, Seq: seq, Payload: generation[name]})
		}
	}
	return seeds
}

// spanCarrier is a committed seed whose frame carries trace spans, and the
// message it decodes to now that no message carries one.
type spanCarrier struct {
	frame []byte
	msg   Msg
}

// spanCarriers returns the compat seeds built while spans rode Deref,
// Result, Control and Complete, by name.
func spanCarriers() map[string]spanCarrier {
	qid := QueryID{Origin: 1, Seq: 3}
	id := object.ID{Birth: 2, Seq: 9}
	id2 := object.ID{Birth: 300, Seq: 1 << 33}
	spans := []Span{
		{Site: 2, Seq: 1, Hop: 1, Filter: 3, In: 200, Out: 150, DurationUS: 40_000},
		{Site: 3, Seq: 2, Hop: 2, Filter: 0, In: 1, Out: 0, DurationUS: 7},
	}
	fetches := []FetchVal{
		{Var: "none", From: id, Val: object.Value{}},
		{Var: "title", From: id, Val: object.String("HyperFile")},
		{Var: "kw", From: id2, Val: object.Keyword("db")},
		{Var: "size", From: id2, Val: object.Int(-5)},
		{Var: "score", From: id2, Val: object.Float(2.75)},
		{Var: "link", From: id, Val: object.Pointer(id2)},
		{Var: "body", From: id2, Val: object.Bytes([]byte{0, 255, 7})},
	}
	derefSpans := &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id},
		Token: []byte{1, 1}, Hop: 4, BodyHash: []byte{0xAB, 0xCD}, BudgetUS: 99}
	derefEvery := &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id, id2},
		Start: 2, Token: []byte{1, 1}, Hop: 200, BodyHash: []byte{0xAB, 0xCD}, BudgetUS: 99}
	result := &Result{QID: qid, IDs: []object.ID{id, id2}, Fetches: fetches, Count: 300,
		Retained: true, Token: []byte{2, 0xFF}, Unreachable: []object.SiteID{4, 500}}
	complete := &Complete{QID: qid, IDs: []object.ID{id2}, Fetches: fetches, Count: 300,
		Distributed: true, Partial: true, Err: "boom", Unreachable: []object.SiteID{4},
		Reason: "peer down"}
	control := &Control{QID: qid, Token: []byte{3, 1}}
	return map[string]spanCarrier{
		"deref_spans": {itersDerefFrame(derefSpans, nil,
			Span{Site: 2, Seq: 1, Hop: 1, Filter: 0, In: 1, Out: 1, DurationUS: 40},
			Span{Site: 3, Seq: 1, Hop: 2, Filter: 0, In: 1, Out: 0, DurationUS: 7}), derefSpans},
		"deref_every_field":    {itersDerefFrame(derefEvery, []int{3, 130}, spans...), derefEvery},
		"result":               {spansFrame(result, spans...), result},
		"complete_every_field": {spansFrame(complete, spans...), complete},
		"control":              {spansFrame(control, spans...), control},
	}
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// corpusDir is where go test auto-loads FuzzFrame seeds from.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzFrame")

// corpusFile renders one seed in the go-fuzz corpus file format.
func corpusFile(data []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
}

// parseCorpusFile inverts corpusFile for any v1 single-[]byte corpus entry.
func parseCorpusFile(src string) ([]byte, error) {
	lines := strings.SplitN(strings.TrimSuffix(src, "\n"), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a v1 fuzz corpus file")
	}
	body, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok {
		return nil, fmt.Errorf("corpus entry is not a single []byte")
	}
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// TestFuzzSeedCorpusCommitted pins the committed seed corpus to compatSeeds:
// every named compat layout must exist under testdata/fuzz/FuzzFrame with
// exactly the bytes the current encoder (plus truncation) produces. Run
//
//	go test ./internal/wire -run TestFuzzSeedCorpusCommitted -update-corpus
//
// after adding a generation to compatSeeds. The flag only creates missing
// files: committed seeds are frozen, so a seed whose bytes differ from the
// encoder's fails with or without it.
func TestFuzzSeedCorpusCommitted(t *testing.T) {
	seeds := compatSeeds()
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sortedKeys(seeds) {
		path := filepath.Join(corpusDir, name)
		want := corpusFile(seeds[name])
		got, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) && *updateCorpus {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Errorf("missing committed seed %s (rerun with -update-corpus): %v", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("committed seed %s drifted from the encoder; wire compat is broken (committed seeds are never rewritten)", name)
		}
	}
}

// TestFuzzSeedCorpusDecodes replays every committed FuzzFrame seed through
// the frame reader and codec outside the fuzzer: each frame must parse and
// each payload must decode, even with an empty fuzz cache. This is the plain
// `go test` guarantee that legacy layouts keep decoding.
func TestFuzzSeedCorpusDecodes(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("reading committed corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("committed corpus is empty")
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := parseCorpusFile(string(src))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		r := bytes.NewReader(data)
		frames := 0
		for r.Len() > 0 {
			fr, err := ReadFrame(r, 1<<16)
			if err != nil {
				t.Errorf("%s: frame %d: %v", e.Name(), frames, err)
				break
			}
			frames++
			m, err := Decode(fr.Payload)
			if err != nil {
				t.Errorf("%s: payload of frame %d does not decode: %v", e.Name(), frames, err)
				continue
			}
			// Decoded compat layouts must re-encode canonically.
			if _, err := Decode(Encode(m)); err != nil {
				t.Errorf("%s: canonical re-encode does not decode: %v", e.Name(), err)
			}
		}
		if frames == 0 {
			t.Errorf("%s: no frames decoded", e.Name())
		}
	}
}

// TestSpanCarriersDecodeWithoutSpans replays every committed seed that
// carried trace spans: each still decodes, to its message with the spans
// dropped, and re-encodes without a span byte — an empty list in the slot
// Result, Control and Complete keep, nothing after a Deref's BudgetUS.
func TestSpanCarriersDecodeWithoutSpans(t *testing.T) {
	for name, sc := range spanCarriers() {
		src, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := parseCorpusFile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fr, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(fr.Payload, sc.frame) {
			t.Fatalf("%s: committed payload is not the frame with spans", name)
		}
		got, err := Decode(fr.Payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, sc.msg) {
			t.Errorf("%s decoded\n %#v, want\n %#v", name, got, sc.msg)
		}
		var spanless []byte
		if d, ok := sc.msg.(*Deref); ok {
			spanless = itersDerefFrame(d, nil)
		} else {
			spanless = spansFrame(sc.msg)
		}
		if re := Encode(got); !bytes.Equal(re, spanless) {
			t.Errorf("%s re-encodes as\n %x, want the frame without spans\n %x", name, re, spanless)
		}
		if len(spanless) >= len(sc.frame) {
			t.Errorf("%s: the frame without spans is %d bytes, the committed one %d", name, len(spanless), len(sc.frame))
		}
	}
}
