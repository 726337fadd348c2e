package wire

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hyperfile/internal/object"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	data := Encode(m)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip %T:\n sent %#v\n got  %#v", m, m, got)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	id1 := object.ID{Birth: 1, Seq: 100}
	id2 := object.ID{Birth: 3, Seq: 7}
	qid := QueryID{Origin: 2, Seq: 42}

	roundTrip(t, &Submit{
		QID: qid, Client: 9, ClientAddr: "127.0.0.1:9999",
		Body:                `S (keyword, "db", ?) -> T`,
		Initial:             []object.ID{id1, id2},
		InitialFromResultOf: QueryID{Origin: 1, Seq: 1},
	})
	roundTrip(t, &Submit{QID: qid, Client: 9, Body: "S -> T"})
	roundTrip(t, &Submit{QID: qid, Client: 9, Body: "S -> T", BudgetUS: 2_500_000})
	roundTrip(t, &Submit{QID: qid, Client: 9, Body: "S -> T", ClientID: 12345})
	roundTrip(t, &Submit{QID: qid, Client: 9, Body: "S -> T", BudgetUS: 2_500_000, ClientID: 7})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2,
		Body:   `S [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T`,
		ObjIDs: []object.ID{id1}, Start: 2, Iters: []int{3, 1}, Token: []byte{1, 2, 3},
		Hop: 4,
	})
	roundTrip(t, &Deref{QID: qid, Origin: 2, ObjIDs: []object.ID{id2}})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T",
		ObjIDs: []object.ID{id1, id2, {Birth: 5, Seq: 999}},
		Start:  1, Iters: []int{2}, Token: []byte{8}, Hop: 2,
	})
	hash := make([]byte, 32)
	for i := range hash {
		hash[i] = byte(i * 7)
	}
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T", BodyHash: hash,
		ObjIDs: []object.ID{id1}, Token: []byte{8}, Hop: 1,
	})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T", BodyHash: hash,
		ObjIDs: []object.ID{id1}, Token: []byte{8}, Hop: 1, BudgetUS: 750_000,
	})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T", BodyHash: hash,
		ObjIDs: []object.ID{id1}, Token: []byte{1, 1}, Hop: 3, BudgetUS: 750_000,
		Spans: []Span{
			{Site: 3, Seq: 1, Hop: 1, Filter: 0, In: 1, Out: 1, DurationUS: 12},
			{Site: 5, Seq: 4, Hop: 2, Filter: 1, In: 2, Out: 0, DurationUS: 300},
		},
	})
	// Spans without a budget: BudgetUS still occupies its byte.
	roundTrip(t, &Deref{QID: qid, Origin: 2, ObjIDs: []object.ID{id2},
		Spans: []Span{{Site: 4, Seq: 2, Hop: 5}}})
	roundTrip(t, &Result{
		QID: qid, IDs: []object.ID{id1},
		Fetches: []FetchVal{
			{Var: "title", From: id1, Val: object.String("HyperFile")},
			{Var: "size", From: id2, Val: object.Int(-5)},
			{Var: "score", From: id2, Val: object.Float(2.75)},
			{Var: "link", From: id2, Val: object.Pointer(id1)},
			{Var: "body", From: id2, Val: object.Bytes([]byte{0, 255, 7})},
			{Var: "kw", From: id2, Val: object.Keyword("word")},
			{Var: "none", From: id2, Val: object.Value{}},
		},
		Count: 1, Retained: true, Token: []byte{9},
		Spans: []Span{
			{Site: 3, Seq: 1, Hop: 2, Filter: 0, In: 10, Out: 4, DurationUS: 120},
			{Site: 3, Seq: 2, Hop: 2, Filter: 1, In: 4, Out: 4, DurationUS: 33},
		},
	})
	roundTrip(t, &Result{QID: qid, Count: 0})
	roundTrip(t, &Control{QID: qid, Token: []byte("credit")})
	roundTrip(t, &Control{QID: qid, Token: []byte{1},
		Spans: []Span{{Site: 5, Seq: 9, Hop: 1, Filter: 2, In: 1, Out: 0, DurationUS: 7}}})
	roundTrip(t, &Finish{QID: qid, Retain: true})
	roundTrip(t, &Finish{QID: qid})
	roundTrip(t, &Complete{
		QID: qid, IDs: []object.ID{id1, id2}, Count: 2,
		Distributed: true, Partial: true, Err: "boom",
		Spans: []Span{{Site: 2, Seq: 1, Hop: 0, Filter: 0, In: 2, Out: 2, DurationUS: 55}},
	})
	roundTrip(t, &Complete{
		QID: qid, IDs: []object.ID{id1}, Count: 1,
		Partial: true, Reason: "deadline expired",
	})
	roundTrip(t, &Seed{
		QID: qid, Origin: 2, Body: `S (a, ?, ?) -> T`,
		FromQID: QueryID{Origin: 2, Seq: 41}, Token: []byte{4}, Hop: 1,
	})
	roundTrip(t, &Seed{
		QID: qid, Origin: 2, Body: `S (a, ?, ?) -> T`,
		FromQID: QueryID{Origin: 2, Seq: 41}, Token: []byte{4}, Hop: 1,
		BudgetUS: 100_000,
	})
	roundTrip(t, &Reject{QID: qid, Reason: "admission queue full"})
	roundTrip(t, &Reject{QID: qid})
	roundTrip(t, &Cancel{QID: qid, Reason: "deadline expired"})
	roundTrip(t, &Cancel{QID: qid})
	roundTrip(t, &StatsReq{Seq: 77, ClientAddr: "127.0.0.1:8080"})
	roundTrip(t, &Migrate{Seq: 5, ID: id1, To: 3, Client: 9, ClientAddr: "c:1", Hops: 2})
	roundTrip(t, &MigrateData{Seq: 5, Obj: []byte(`{"id":"s1:1"}`), Client: 9, ClientAddr: "c:1"})
	roundTrip(t, &MigrateDone{ID: id1, NewSite: 3})
	roundTrip(t, &Migrated{Seq: 5, ID: id1, OK: true})
	roundTrip(t, &Migrated{Seq: 6, Err: "not found"})
	roundTrip(t, &StatsResp{
		Seq: 77, Site: 3, Contexts: 2, Objects: 90,
		Counters: []Counter{{Name: "derefs_sent", Value: 12}, {Name: "completed", Value: 3}},
	})
	roundTrip(t, &StatsResp{Seq: 1})
}

// legacyDerefFrame hand-encodes the pre-batching KDeref wire layout: exactly
// one object id, not length-prefixed. Encoders no longer emit it, but frames
// from older senders must keep decoding.
func legacyDerefFrame(qid QueryID, origin object.SiteID, body string, id object.ID, start int, iters []int, token []byte, hop uint32) []byte {
	e := &encoder{}
	e.u8(uint8(KDeref))
	e.qid(qid)
	e.u64(uint64(origin))
	e.str(body)
	e.id(id)
	e.u64(uint64(start))
	e.u64(uint64(len(iters)))
	for _, it := range iters {
		e.u64(uint64(it))
	}
	e.bytes(token)
	e.u64(uint64(hop))
	return e.buf
}

func TestDecodeLegacySingleIDDeref(t *testing.T) {
	qid := QueryID{Origin: 2, Seq: 42}
	id := object.ID{Birth: 3, Seq: 123}
	data := legacyDerefFrame(qid, 2, `S (a, ?, ?) -> T`, id, 2, []int{3, 1}, []byte{1, 2, 3}, 4)
	m, err := Decode(data)
	if err != nil {
		t.Fatalf("legacy KDeref frame: %v", err)
	}
	want := &Deref{
		QID: qid, Origin: 2, Body: `S (a, ?, ?) -> T`,
		ObjIDs: []object.ID{id}, Start: 2, Iters: []int{3, 1},
		Token: []byte{1, 2, 3}, Hop: 4,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("legacy decode:\n got  %#v\n want %#v", m, want)
	}
	// Re-encoding emits the batched layout, which must also round-trip.
	re, err := Decode(Encode(m))
	if err != nil || !reflect.DeepEqual(re, want) {
		t.Fatalf("re-encode of legacy frame: %#v, %v", re, err)
	}
	if Encode(m)[0] != byte(KDerefBatch) {
		t.Fatalf("re-encode kept legacy kind byte %d", Encode(m)[0])
	}
	// Truncations of the legacy layout must error, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("legacy frame truncated to %d bytes decoded successfully", n)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                         // unknown kind
		{byte(KDeref)},               // truncated
		{byte(KSubmit), 1},           // truncated qid
		append(Encode(&Finish{}), 7), // trailing garbage
	}
	for _, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrDecode) {
			t.Errorf("Decode(%v) error = %v, want ErrDecode", data, err)
		}
	}
}

func TestDecodeTruncationsNeverPanic(t *testing.T) {
	msgs := []Msg{
		&Submit{QID: QueryID{1, 2}, Body: "S -> T", Initial: []object.ID{{Birth: 1, Seq: 2}},
			BudgetUS: 500_000, ClientID: 9_000},
		&Deref{QID: QueryID{1, 2}, Body: "S -> T", Iters: []int{1, 2}, Token: []byte{5},
			BodyHash: make([]byte, 32), BudgetUS: 500_000,
			Spans: []Span{{Site: 2, Seq: 1, Hop: 1, In: 1, Out: 1, DurationUS: 9}}},
		&Seed{QID: QueryID{1, 2}, Body: "S -> T", FromQID: QueryID{1, 1}, Token: []byte{5},
			BudgetUS: 500_000},
		&Result{QID: QueryID{1, 2}, IDs: []object.ID{{Birth: 1, Seq: 2}},
			Fetches: []FetchVal{{Var: "v", Val: object.String("x")}}},
		&Complete{QID: QueryID{1, 2}, Err: "e", Reason: "cancelled"},
		&Reject{QID: QueryID{1, 2}, Reason: "full"},
		&Cancel{QID: QueryID{1, 2}, Reason: "expired"},
	}
	for _, m := range msgs {
		// Cuts exactly before an optional trailing field are, by design, valid
		// older-generation frames: a Deref may legally end before Spans (no
		// spans), before BudgetUS (pre-deadline) or before BodyHash
		// (pre-plan-cache), a Submit before ClientID (pre-fairness) or before
		// BudgetUS, and a Seed before BudgetUS. Every other cut must error.
		var legacy []Msg
		switch v := m.(type) {
		case *Deref:
			c := *v
			c.Spans = nil
			preSpans := c
			legacy = append(legacy, &preSpans)
			c.BudgetUS = 0
			preBudget := c
			legacy = append(legacy, &preBudget)
			c.BodyHash = nil
			legacy = append(legacy, &c)
		case *Submit:
			c := *v
			c.ClientID = 0
			preClient := c
			legacy = append(legacy, &preClient)
			c.BudgetUS = 0
			legacy = append(legacy, &c)
		case *Seed:
			c := *v
			c.BudgetUS = 0
			legacy = append(legacy, &c)
		case *Complete:
			c := *v
			c.Reason = ""
			legacy = append(legacy, &c)
		}
		data := Encode(m)
		for n := 0; n < len(data); n++ {
			got, err := Decode(data[:n])
			if err != nil {
				continue
			}
			ok := false
			for _, l := range legacy {
				if reflect.DeepEqual(got, l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%T truncated to %d bytes decoded successfully", m, n)
			}
		}
	}
}

// TestDerefWithoutSpansEncodesAsBefore pins the bytes of a Deref carrying
// every field but Spans: its encoding predates Spans and must not change, so
// senders and receivers on either side of the field interoperate.
func TestDerefWithoutSpansEncodesAsBefore(t *testing.T) {
	m := &Deref{
		QID: QueryID{Origin: 1, Seq: 7}, Origin: 1, Body: "S -> T",
		ObjIDs: []object.ID{{Birth: 2, Seq: 9}}, Start: 1, Iters: []int{2},
		Token: []byte{1, 1}, Hop: 3, BodyHash: []byte{0xAB, 0xCD}, BudgetUS: 300,
	}
	const want = "100107010653202d3e20540102090101020201010302abcdac02"
	if got := hex.EncodeToString(Encode(m)); got != want {
		t.Errorf("Deref without spans encodes as\n %s, want\n %s", got, want)
	}
	m.Spans = []Span{}
	if got := hex.EncodeToString(Encode(m)); got != want {
		t.Errorf("Deref with empty spans encodes as\n %s, want\n %s", got, want)
	}
}

// TestDecodePreSpansDeref: a Deref frame that ends after BudgetUS — every
// frame from before Spans existed, and every one sent without spans since —
// decodes with Spans nil and every other field intact.
func TestDecodePreSpansDeref(t *testing.T) {
	full := &Deref{
		QID: QueryID{Origin: 2, Seq: 42}, Origin: 2, Body: "S -> T",
		ObjIDs: []object.ID{{Birth: 3, Seq: 7}}, Token: []byte{1, 1}, Hop: 2,
		BodyHash: make([]byte, 32), BudgetUS: 123,
		Spans: []Span{{Site: 3, Seq: 1, Hop: 1, In: 1, Out: 1, DurationUS: 5}},
	}
	pre := *full
	pre.Spans = nil
	data := Encode(full)
	got, err := Decode(data[:len(Encode(&pre))])
	if err != nil {
		t.Fatalf("pre-spans Deref frame: %v", err)
	}
	d, ok := got.(*Deref)
	if !ok {
		t.Fatalf("decoded %T, want *Deref", got)
	}
	if d.Spans != nil {
		t.Errorf("pre-spans frame decoded Spans = %v, want nil", d.Spans)
	}
	if !reflect.DeepEqual(d, &pre) {
		t.Errorf("pre-spans frame decoded\n %#v, want\n %#v", d, &pre)
	}
}

// TestDecodePreBudgetFrames hand-checks backward compatibility: frames that
// end where the pre-deadline encoders ended must decode with BudgetUS zero.
func TestDecodePreBudgetFrames(t *testing.T) {
	qid := QueryID{Origin: 2, Seq: 42}
	id := object.ID{Birth: 3, Seq: 7}
	full := []Msg{
		&Submit{QID: qid, Client: 9, Body: "S -> T", Initial: []object.ID{id},
			BudgetUS: 123},
		&Deref{QID: qid, Origin: 2, Body: "S -> T", ObjIDs: []object.ID{id},
			Token: []byte{1}, Hop: 1, BodyHash: make([]byte, 32), BudgetUS: 123},
		&Seed{QID: qid, Origin: 2, Body: "S -> T", FromQID: QueryID{2, 41},
			Token: []byte{1}, Hop: 1, BudgetUS: 123},
	}
	for _, m := range full {
		data := Encode(m)
		// The budget encodes as a single varint byte (123 < 128). For Deref
		// and Seed it is the final field; Submit has grown a trailing
		// ClientID varint (zero here, one byte) after it, so reconstructing
		// the pre-budget Submit frame strips two bytes.
		strip := 1
		if _, ok := m.(*Submit); ok {
			strip = 2
		}
		got, err := Decode(data[:len(data)-strip])
		if err != nil {
			t.Fatalf("pre-budget %T frame: %v", m, err)
		}
		var budget uint64
		switch v := got.(type) {
		case *Submit:
			budget = v.BudgetUS
		case *Deref:
			budget = v.BudgetUS
		case *Seed:
			budget = v.BudgetUS
		}
		if budget != 0 {
			t.Errorf("pre-budget %T frame decoded BudgetUS = %d, want 0", m, budget)
		}
	}
}

// TestDecodePreClientIDSubmit hand-checks the next compatibility generation:
// Submit frames that end at BudgetUS (pre-fairness encoders) must decode with
// ClientID zero, leaving the budget intact.
func TestDecodePreClientIDSubmit(t *testing.T) {
	m := &Submit{QID: QueryID{Origin: 2, Seq: 42}, Client: 9, Body: "S -> T",
		BudgetUS: 123, ClientID: 55}
	data := Encode(m)
	// ClientID 55 < 128 encodes as the final varint byte; strip it.
	got, err := Decode(data[:len(data)-1])
	if err != nil {
		t.Fatalf("pre-client-id Submit frame: %v", err)
	}
	s, ok := got.(*Submit)
	if !ok {
		t.Fatalf("decoded %T, want *Submit", got)
	}
	if s.ClientID != 0 {
		t.Errorf("pre-client-id frame decoded ClientID = %d, want 0", s.ClientID)
	}
	if s.BudgetUS != 123 {
		t.Errorf("pre-client-id frame decoded BudgetUS = %d, want 123", s.BudgetUS)
	}
}

// TestDecodePreCumulativeAck: the one-field Ack layout (pre-cumulative
// encoders) still decodes, as a purely selective ack; the current layout
// round-trips both fields.
func TestDecodePreCumulativeAck(t *testing.T) {
	roundTrip(t, &Ack{Seq: 300, Cum: 257})
	roundTrip(t, &Ack{Cum: 1})
	data := Encode(&Ack{Seq: 300, Cum: 7})
	// Cum 7 < 128 encodes as the final varint byte; strip it.
	got, err := Decode(data[:len(data)-1])
	if err != nil {
		t.Fatalf("pre-cumulative Ack frame: %v", err)
	}
	if a, ok := got.(*Ack); !ok || a.Seq != 300 || a.Cum != 0 {
		t.Errorf("pre-cumulative frame decoded %#v, want Ack{Seq: 300, Cum: 0}", got)
	}
}

func TestDecodeRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		_, _ = Decode(data) // must not panic; error is fine
	}
}

func TestHugeLengthPrefixRejected(t *testing.T) {
	// KResult followed by a qid and then an absurd id-count.
	e := &encoder{}
	e.u8(uint8(KResult))
	e.qid(QueryID{1, 1})
	e.u64(1 << 40) // ids length
	if _, err := Decode(e.buf); !errors.Is(err, ErrDecode) {
		t.Errorf("huge length: %v, want ErrDecode", err)
	}
}

func TestDerefMessageIsSmall(t *testing.T) {
	// The paper reports ~40-byte query messages; our Deref with the running
	// experimental query body must stay the same order of magnitude.
	m := &Deref{
		QID: QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body:   `R [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T`,
		ObjIDs: []object.ID{{Birth: 3, Seq: 123}}, Start: 2, Iters: []int{4},
		Token: make([]byte, 10),
	}
	n := len(Encode(m))
	if n > 120 {
		t.Errorf("Deref message is %d bytes; expected well under 120", n)
	}
}

func TestQueryIDString(t *testing.T) {
	if got := (QueryID{Origin: 3, Seq: 9}).String(); got != "q9@s3" {
		t.Errorf("String = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if KDeref.String() != "deref" || Kind(99).String() == "" {
		t.Errorf("kind names wrong")
	}
}

// Property: Deref messages round-trip for arbitrary cursor state.
func TestQuickDerefRoundTrip(t *testing.T) {
	f := func(origin uint32, seq uint64, body string, birth uint32, oseqs []uint16, start uint16, iters []uint8, token []byte) bool {
		in := &Deref{
			QID:    QueryID{Origin: object.SiteID(origin), Seq: seq},
			Origin: object.SiteID(origin),
			Body:   body,
			Start:  int(start),
		}
		for _, os := range oseqs {
			in.ObjIDs = append(in.ObjIDs, object.ID{Birth: object.SiteID(birth), Seq: uint64(os)})
		}
		if in.ObjIDs == nil {
			in.ObjIDs = []object.ID{{Birth: object.SiteID(birth), Seq: 1}}
		}
		for _, it := range iters {
			in.Iters = append(in.Iters, int(it))
		}
		if len(token) > 0 {
			in.Token = token
		}
		out, err := Decode(Encode(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Result messages round-trip for arbitrary id lists.
func TestQuickResultRoundTrip(t *testing.T) {
	f := func(seq uint64, births []uint16, count uint16, retained bool) bool {
		in := &Result{QID: QueryID{Origin: 1, Seq: seq}, Count: int(count), Retained: retained}
		for i, b := range births {
			in.IDs = append(in.IDs, object.ID{Birth: object.SiteID(b) + 1, Seq: uint64(i)})
		}
		out, err := Decode(Encode(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
