package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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
	// Every field of every type, so no walk leaves a field out.
	for _, m := range everyKind(t) {
		roundTrip(t, m)
	}
}

// legacyDerefFrame hand-encodes the pre-batching KDeref wire layout: exactly
// one object id, not length-prefixed. Encoders no longer emit it, but frames
// from older senders must keep decoding.
func legacyDerefFrame(qid QueryID, origin object.SiteID, body string, id object.ID, start int, iters []int, token []byte, hop uint32) []byte {
	c := &coder{}
	k := uint8(KDeref)
	c.u8(&k)
	c.qid(&qid)
	c.site(&origin)
	c.str(&body)
	c.id(&id)
	c.int(&start)
	c.ints(&iters)
	c.bytes(&token)
	c.u32(&hop)
	return c.buf
}

// itersDerefFrame hand-encodes m in the batched layout with iters in the
// list after Start, which encoders now leave empty, and spans in the trailing
// list, which encoders no longer write: the frames senders wrote while items
// carried an iteration-number stack, and while a Deref handing on credit
// carried trace spans. Decoding must keep accepting them.
func itersDerefFrame(m *Deref, iters []int, spans ...Span) []byte {
	c := &coder{}
	k := uint8(KDerefBatch)
	c.u8(&k)
	c.qid(&m.QID)
	c.site(&m.Origin)
	c.str(&m.Body)
	c.ids(&m.ObjIDs)
	c.int(&m.Start)
	c.ints(&iters)
	c.bytes(&m.Token)
	c.u32(&m.Hop)
	c.bytes(&m.BodyHash)
	c.u64(&m.BudgetUS)
	if len(spans) > 0 {
		c.spans(&spans)
	}
	return c.buf
}

// spansFrame hand-encodes a Result, Control or Complete with spans in the
// list encoders now leave empty: the frames senders wrote while trace spans
// rode those messages home. Decoding must keep accepting them.
func spansFrame(m Msg, spans ...Span) []byte {
	c := &coder{}
	k := uint8(m.Kind())
	c.u8(&k)
	switch m := m.(type) {
	case *Result:
		c.qid(&m.QID)
		c.ids(&m.IDs)
		c.fetches(&m.Fetches)
		c.int(&m.Count)
		c.bool(&m.Retained)
		c.bytes(&m.Token)
		c.sites(&m.Unreachable)
		c.spans(&spans)
	case *Control:
		c.qid(&m.QID)
		c.bytes(&m.Token)
		c.spans(&spans)
	case *Complete:
		c.qid(&m.QID)
		c.ids(&m.IDs)
		c.fetches(&m.Fetches)
		c.int(&m.Count)
		c.bool(&m.Distributed)
		c.bool(&m.Partial)
		c.str(&m.Err)
		c.sites(&m.Unreachable)
		c.spans(&spans)
		c.str(&m.Reason)
	default:
		panic(fmt.Sprintf("spansFrame: %T never carried spans", m))
	}
	return c.buf
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
		ObjIDs: []object.ID{id}, Start: 2,
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

// everyKind returns one message of each of the 17 types, with every exported
// field set to a non-zero value (see fillNonZero).
func everyKind(t *testing.T) []Msg {
	t.Helper()
	var msgs []Msg
	seen := map[reflect.Type]bool{}
	for k := KSubmit; int(k) < len(kindNames); k++ {
		m := newMsg(k)
		if m == nil {
			t.Fatalf("no message type for kind %v", k)
		}
		typ := reflect.TypeOf(m)
		if seen[typ] {
			continue // KDeref and KDerefBatch share Deref
		}
		seen[typ] = true
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

// trailingOptionals names, per message type, the fields read behind c.tail,
// in wire order. A frame may end just before any of them.
var trailingOptionals = map[reflect.Type][]string{
	reflect.TypeOf(Submit{}):   {"BudgetUS", "ClientID"},
	reflect.TypeOf(Deref{}):    {"BodyHash", "BudgetUS"},
	reflect.TypeOf(Complete{}): {"Reason"},
	reflect.TypeOf(Seed{}):     {"BudgetUS"},
	reflect.TypeOf(Ack{}):      {"Cum"},
}

// TestDecodeTruncationsNeverPanic cuts a fully populated message of every
// type, and the legacy KDeref frame, at every byte. Each cut must fail to
// decode, except a cut exactly before a trailing optional field: that is a
// valid older-generation frame, and must decode with that field and every
// later one zero.
func TestDecodeTruncationsNeverPanic(t *testing.T) {
	for _, m := range everyKind(t) {
		typ := reflect.TypeOf(m).Elem()
		opts := trailingOptionals[typ]
		// older[i] is m as a sender predating opts[i] would send it.
		older := make([]Msg, len(opts))
		for i := range opts {
			v := reflect.New(typ)
			v.Elem().Set(reflect.ValueOf(m).Elem())
			for _, name := range opts[i:] {
				f := v.Elem().FieldByName(name)
				f.Set(reflect.Zero(f.Type()))
			}
			older[i] = v.Interface().(Msg)
		}
		hits := make([]int, len(older))
		data := Encode(m)
		for n := 0; n < len(data); n++ {
			got, err := Decode(data[:n])
			if err != nil {
				continue
			}
			ok := false
			for i, o := range older {
				if reflect.DeepEqual(got, o) {
					hits[i]++
					ok = true
				}
			}
			if !ok {
				t.Errorf("%T truncated to %d bytes decoded successfully", m, n)
			}
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("%T: the cut before %s decoded %d times, want once", m, opts[i], h)
			}
		}
	}
	legacy := legacyDerefFrame(QueryID{1, 2}, 1, "S -> T", object.ID{Birth: 2, Seq: 9}, 1, []int{2}, []byte{1}, 2)
	for n := 0; n < len(legacy); n++ {
		if _, err := Decode(legacy[:n]); err == nil {
			t.Errorf("legacy KDeref truncated to %d bytes decoded successfully", n)
		}
	}
}

// TestDerefWithoutSpansEncodesAsBefore pins the bytes of a Deref carrying
// every field: its encoding predates trace spans and must not change, so
// senders and receivers on either side of them interoperate. A frame that
// still carries spans decodes to the same Deref and re-encodes to those
// bytes.
func TestDerefWithoutSpansEncodesAsBefore(t *testing.T) {
	m := &Deref{
		QID: QueryID{Origin: 1, Seq: 7}, Origin: 1, Body: "S -> T",
		ObjIDs: []object.ID{{Birth: 2, Seq: 9}}, Start: 1,
		Token: []byte{1, 1}, Hop: 3, BodyHash: []byte{0xAB, 0xCD}, BudgetUS: 300,
	}
	const want = "100107010653202d3e205401020901000201010302abcdac02"
	if got := hex.EncodeToString(Encode(m)); got != want {
		t.Errorf("Deref without spans encodes as\n %s, want\n %s", got, want)
	}
	got, err := Decode(itersDerefFrame(m, nil, Span{Site: 4, Seq: 2, Hop: 5}))
	if err != nil {
		t.Fatalf("Deref frame with spans: %v", err)
	}
	if re := hex.EncodeToString(Encode(got)); re != want {
		t.Errorf("Deref frame with spans re-encodes as\n %s, want\n %s", re, want)
	}
}

// TestDecodePreSpansDeref: a Deref frame that ends after BudgetUS — every
// frame from before spans rode Derefs, and every one sent since they stopped
// — decodes with every field intact, and so does one that carries spans,
// which are dropped.
func TestDecodePreSpansDeref(t *testing.T) {
	pre := &Deref{
		QID: QueryID{Origin: 2, Seq: 42}, Origin: 2, Body: "S -> T",
		ObjIDs: []object.ID{{Birth: 3, Seq: 7}}, Token: []byte{1, 1}, Hop: 2,
		BodyHash: make([]byte, 32), BudgetUS: 123,
	}
	spans := itersDerefFrame(pre, nil, Span{Site: 3, Seq: 1, Hop: 1, In: 1, Out: 1, DurationUS: 5})
	if !bytes.HasPrefix(spans, Encode(pre)) {
		t.Fatalf("frame with spans does not extend the frame without:\n %x\n %x", spans, Encode(pre))
	}
	for name, data := range map[string][]byte{"pre-spans": Encode(pre), "with spans": spans} {
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s Deref frame: %v", name, err)
		}
		if !reflect.DeepEqual(got, pre) {
			t.Errorf("%s frame decoded\n %#v, want\n %#v", name, got, pre)
		}
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

// Property: Deref messages round-trip for arbitrary cursor state, and a
// frame from a sender that still filled the iteration-number list decodes
// to the same message with the list dropped.
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
		if len(token) > 0 {
			in.Token = token
		}
		legacy := make([]int, len(iters))
		for i, it := range iters {
			legacy[i] = int(it)
		}
		out, err := Decode(Encode(in))
		old, oldErr := Decode(itersDerefFrame(in, legacy))
		return err == nil && reflect.DeepEqual(in, out) && oldErr == nil && reflect.DeepEqual(in, old)
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
