package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
		ObjIDs: []object.ID{id1}, Start: 2, Token: []byte{1, 2, 3},
		Hop: 4,
	})
	roundTrip(t, &Deref{QID: qid, Origin: 2, ObjIDs: []object.ID{id2}})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T",
		ObjIDs: []object.ID{id1, id2, {Birth: 5, Seq: 999}},
		Start:  1, Token: []byte{8}, Hop: 2,
	})
	roundTrip(t, &Deref{
		QID: qid, Origin: 2, Body: "S -> T",
		ObjIDs: []object.ID{id1}, Token: []byte{8}, Hop: 1, BudgetUS: 750_000,
	})
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
	})
	roundTrip(t, &Result{QID: qid, Count: 0})
	roundTrip(t, &Control{QID: qid, Token: []byte("credit")})
	roundTrip(t, &Finish{QID: qid, Retain: true})
	roundTrip(t, &Finish{QID: qid})
	roundTrip(t, &Complete{
		QID: qid, IDs: []object.ID{id1, id2}, Count: 2,
		Distributed: true, Partial: true, Err: "boom",
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
	roundTrip(t, &Ack{Seq: 300, Cum: 257})
	roundTrip(t, &Ack{Cum: 1})
	// Every field of every type, so no walk leaves a field out.
	for _, m := range everyKind(t) {
		roundTrip(t, m)
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

// everyKind returns one message of each of the 17 kinds, with every exported
// field set to a non-zero value (see fillNonZero).
func everyKind(t *testing.T) []Msg {
	t.Helper()
	var msgs []Msg
	for k := KSubmit; int(k) < len(kindNames); k++ {
		m := newMsg(k)
		if m == nil {
			t.Fatalf("no message type for kind %v", k)
		}
		typ := reflect.TypeOf(m)
		n := 0
		fillNonZero(reflect.ValueOf(m).Elem(), &n)
		for i := 0; i < typ.Elem().NumField(); i++ {
			if f := typ.Elem().Field(i); f.IsExported() && reflect.ValueOf(m).Elem().Field(i).IsZero() {
				t.Fatalf("%s.%s left zero", typ.Elem().Name(), f.Name)
			}
		}
		msgs = append(msgs, m)
	}
	if len(msgs) != 17 {
		t.Fatalf("%d message types, want 17", len(msgs))
	}
	return msgs
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value, distinct per field: n counts the values handed out so far. Slices
// get two elements; an object.Value gets a valid non-nil kind.
func fillNonZero(v reflect.Value, n *int) {
	*n++
	if v.Type() == reflect.TypeOf(object.Value{}) {
		vals := []object.Value{
			object.String("s"), object.Keyword("k"), object.Int(int64(-*n)),
			object.Float(float64(*n) + 0.5), object.Pointer(object.ID{Birth: 2, Seq: uint64(*n)}),
			object.Bytes([]byte{byte(*n), 0}),
		}
		v.Set(reflect.ValueOf(vals[*n%len(vals)]))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(100 * *n))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		x := uint64(100 * *n)
		if v.OverflowUint(x) {
			x = uint64(*n%255 + 1)
		}
		v.SetUint(x)
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillNonZero(v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i), n)
			}
		}
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestEncodeIsReadOnly encodes the same messages from two goroutines at once.
// Encoding must only read the message, so under -race any store to one — even
// of the value it already holds — fails here.
func TestEncodeIsReadOnly(t *testing.T) {
	msgs := everyKind(t)
	want := make([][]byte, len(msgs))
	for i, m := range msgs {
		want[i] = Encode(m)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range msgs {
				if got := Encode(m); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("%T encodes differently under concurrency", m)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecodeTruncationsNeverPanic cuts a fully populated message of every
// kind at every byte. Each cut must fail to decode, copying or borrowed, and
// neither decode may panic.
func TestDecodeTruncationsNeverPanic(t *testing.T) {
	for _, m := range everyKind(t) {
		data := Encode(m)
		for n := 0; n < len(data); n++ {
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("%T truncated to %d bytes decoded successfully", m, n)
			}
			if _, err := DecodeBorrowed(data[:n]); err == nil {
				t.Errorf("%T truncated to %d bytes decoded borrowed", m, n)
			}
		}
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

// TestHugeLengthPrefixRejected: a length prefix is bounded by the bytes left
// in the frame, so a few forged bytes announcing a huge slice fail without
// allocating it — for 1<<24-1 elements that was 256 MB of ids in a Result
// and 384 MB of counters in a StatsResp.
func TestHugeLengthPrefixRejected(t *testing.T) {
	frames := map[string][]byte{
		"result 1<<40":       binary.AppendUvarint([]byte{byte(KResult), 1, 1}, 1<<40),
		"result 1<<24-1":     binary.AppendUvarint([]byte{byte(KResult), 1, 1}, 1<<24-1),
		"stats-resp 1<<24-1": binary.AppendUvarint([]byte{byte(KStatsResp), 1, 1, 1, 1}, 1<<24-1),
	}
	for name, data := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrDecode) {
			t.Errorf("%s: %d-byte frame: %v, want ErrDecode", name, len(data), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", name, len(data), n)
		}
	}
}

func TestDerefMessageIsSmall(t *testing.T) {
	// The paper reports ~40-byte query messages; our Deref with the running
	// experimental query body must stay the same order of magnitude.
	m := &Deref{
		QID: QueryID{Origin: 1, Seq: 7}, Origin: 1,
		Body:   `R [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T`,
		ObjIDs: []object.ID{{Birth: 3, Seq: 123}}, Start: 2,
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
	f := func(origin uint32, seq uint64, body string, birth uint32, oseqs []uint16, start uint16, token []byte) bool {
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
