package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hyperfile/internal/object"
)

var updateCorpus = flag.Bool("update-corpus", false, "write the committed fuzz seeds under testdata/fuzz that are missing or differ from the encoder")

// everyField returns one message of each kind with every field set, by
// corpus seed name. The values reach the codec's edges: multi-byte varints,
// two-element lists, and every object.Value kind among the fetches.
func everyField() map[string]Msg {
	qid := QueryID{Origin: 1, Seq: 3}
	id := object.ID{Birth: 2, Seq: 9}
	id2 := object.ID{Birth: 300, Seq: 1 << 33}
	fetches := []FetchVal{
		{Var: "none", From: id, Val: object.Value{}},
		{Var: "title", From: id, Val: object.String("HyperFile")},
		{Var: "kw", From: id2, Val: object.Keyword("db")},
		{Var: "size", From: id2, Val: object.Int(-5)},
		{Var: "score", From: id2, Val: object.Float(2.75)},
		{Var: "link", From: id, Val: object.Pointer(id2)},
		{Var: "body", From: id2, Val: object.Bytes([]byte{0, 255, 7})},
	}
	return map[string]Msg{
		"submit_every_field": &Submit{QID: qid, Client: 7, ClientAddr: "127.0.0.1:9999",
			Body: "S -> T", Initial: []object.ID{id, id2}, InitialFromResultOf: QueryID{Origin: 1, Seq: 2},
			BudgetUS: 250_000, ClientID: 1 << 40},
		"deref_every_field": &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id, id2},
			Start: 2, Token: []byte{1, 1}, Hop: 200, BudgetUS: 99},
		"seed_every_field": &Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: QueryID{Origin: 1, Seq: 2},
			Token: []byte{1}, Hop: 3, BudgetUS: 400},
		"result": &Result{QID: qid, IDs: []object.ID{id, id2}, Fetches: fetches, Count: 300,
			Retained: true, Token: []byte{2, 0xFF}, Unreachable: []object.SiteID{4, 500}},
		"complete_every_field": &Complete{QID: qid, IDs: []object.ID{id2}, Fetches: fetches, Count: 300,
			Distributed: true, Partial: true, Err: "boom", Unreachable: []object.SiteID{4},
			Reason: "peer down"},
		"control":        &Control{QID: qid, Token: []byte{3, 1}},
		"finish":         &Finish{QID: qid, Retain: true},
		"reject":         &Reject{QID: qid, Reason: "admission queue full"},
		"cancel":         &Cancel{QID: qid, Reason: "deadline expired"},
		"stats_req":      &StatsReq{Seq: 77, ClientAddr: "127.0.0.1:8080"},
		"stats_resp":     &StatsResp{Seq: 77, Site: 3, Contexts: 2, Objects: 90_000, Counters: []Counter{{Name: "derefs_sent", Value: 12}, {Name: "completed", Value: 1 << 20}}},
		"migrate":        &Migrate{Seq: 5, ID: id2, To: 3, Client: 9, ClientAddr: "c:1", Hops: 2},
		"migrate_data":   &MigrateData{Seq: 5, Obj: []byte(`{"id":"s2:9"}`), Client: 9, ClientAddr: "c:1"},
		"migrate_done":   &MigrateDone{ID: id2, NewSite: 3},
		"migrated":       &Migrated{Seq: 5, ID: id2, OK: true, Err: "moved twice"},
		"ack_cumulative": &Ack{Seq: 9, Cum: 7},
		"heartbeat":      &Heartbeat{Seq: 1 << 14},
	}
}

// corpusSeeds is the committed FuzzFrame corpus, one frame per name, all at
// the current wire version: everyField's messages, and frames that leave
// most fields zero (empty lists and strings). The *_pre_* seeds are the
// messages that once went out in a shorter layout because a trailing field
// was unset; they now carry that field as an explicit zero. The other deref_*
// seeds are the single-id, body-carrying and credit-forwarding Derefs. go
// test loads these through FuzzFrame's seed corpus, so the coverage
// survives CI fuzz-cache loss.
func corpusSeeds() map[string][]byte {
	qid := QueryID{Origin: 1, Seq: 3}
	id := object.ID{Birth: 2, Seq: 9}
	msgs := everyField()
	msgs["submit_clientid"] = &Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 250_000, ClientID: 1 << 40}
	msgs["submit_pre_clientid"] = &Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 250_000}
	msgs["submit_pre_budget"] = &Submit{QID: qid, Client: 7, Body: "S -> T"}
	msgs["deref_bodyhash"] = &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id}, Token: []byte{1}, BudgetUS: 99}
	msgs["deref_pre_bodyhash"] = &Deref{QID: qid, Origin: 1, ObjIDs: []object.ID{id}, Token: []byte{1}}
	msgs["deref_legacy_single"] = &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id}, Start: 1, Token: []byte{1}, Hop: 2}
	msgs["deref_spans"] = &Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id}, Token: []byte{1, 1}, Hop: 4, BudgetUS: 99}
	msgs["complete_reason"] = &Complete{QID: qid, Count: 1, Partial: true, Reason: "cancelled by client"}
	msgs["complete_pre_reason"] = &Complete{QID: qid, Count: 1}
	msgs["seed_budget"] = &Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid, BudgetUS: 400}
	msgs["seed_pre_budget"] = &Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid}
	msgs["ack_pre_cumulative"] = &Ack{Seq: 9}
	seeds := make(map[string][]byte, len(msgs))
	for i, name := range sortedKeys(msgs) {
		seeds[name] = AppendFrameMsg(nil, 3, 1, uint64(i+1), msgs[name])
	}
	return seeds
}

func sortedKeys[V any](m map[string]V) []string {
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

// TestFuzzSeedCorpusCommitted pins the committed seed corpus to corpusSeeds:
// every named frame must exist under testdata/fuzz/FuzzFrame with exactly the
// bytes the current encoder produces. Run
//
//	go test ./internal/wire -run TestFuzzSeedCorpusCommitted -update-corpus
//
// after a layout change or a new seed, and review the corpus diff: the flag
// writes every seed that is missing or differs.
func TestFuzzSeedCorpusCommitted(t *testing.T) {
	seeds := corpusSeeds()
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sortedKeys(seeds) {
		path := filepath.Join(corpusDir, name)
		want := corpusFile(seeds[name])
		got, err := os.ReadFile(path)
		if *updateCorpus && (err != nil || string(got) != want) {
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
			t.Errorf("committed seed %s differs from the encoder (rerun with -update-corpus and review the diff)", name)
		}
	}
}

// TestFuzzSeedCorpusDecodes replays every committed FuzzFrame seed through
// the frame reader and codec outside the fuzzer: each frame must parse, and
// each payload must decode and re-encode to its own bytes, even with an empty
// fuzz cache. A seed of another wire version fails here at its header.
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
			if re := Encode(m); !bytes.Equal(re, fr.Payload) {
				t.Errorf("%s: payload re-encodes as %x, not as committed %x", e.Name(), re, fr.Payload)
			}
		}
		if frames == 0 {
			t.Errorf("%s: no frames decoded", e.Name())
		}
	}
}

// TestDecodeRejectsStrictPrefixes: every strict prefix of each kind's
// every-field frame fails to decode, copying or borrowed. Every field is
// always on the wire, so a frame cut anywhere is truncated, never a frame
// of some other layout.
func TestDecodeRejectsStrictPrefixes(t *testing.T) {
	msgs := everyField()
	kinds := map[Kind]bool{}
	for _, name := range sortedKeys(msgs) {
		m := msgs[name]
		kinds[m.Kind()] = true
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s leaves %s zero", name, v.Type().Field(i).Name)
			}
		}
		data := Encode(m)
		for n := 0; n < len(data); n++ {
			if _, err := Decode(data[:n]); !errors.Is(err, ErrDecode) {
				t.Errorf("%s cut to %d of %d bytes: Decode error %v, want ErrDecode", name, n, len(data), err)
			}
			if _, err := DecodeBorrowed(data[:n]); !errors.Is(err, ErrDecode) {
				t.Errorf("%s cut to %d of %d bytes: DecodeBorrowed error %v, want ErrDecode", name, n, len(data), err)
			}
		}
	}
	if len(kinds) != len(kindNames)-1 {
		t.Errorf("everyField covers %d kinds, want %d", len(kinds), len(kindNames)-1)
	}
}
