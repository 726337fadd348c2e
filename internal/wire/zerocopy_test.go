package wire

import (
	"bytes"
	"testing"

	"hyperfile/internal/object"
)

// TestBorrowedDecodeMatchesCopyOnCorpus: on every committed corpus payload,
// the borrowed decode must be byte-for-byte the same message as the copying
// decode.
func TestBorrowedDecodeMatchesCopyOnCorpus(t *testing.T) {
	for name, frame := range corpusSeeds() {
		fr, err := ReadFrame(bytes.NewReader(frame), 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc, err := Decode(fr.Payload)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		mb, err := DecodeBorrowed(fr.Payload)
		if err != nil {
			t.Fatalf("%s: DecodeBorrowed: %v", name, err)
		}
		if !bytes.Equal(Encode(mb), Encode(mc)) {
			t.Fatalf("%s: borrowed decode differs from copying decode", name)
		}
	}
}

// TestBorrowedDecodeAliasesBuffer: borrowed kinds alias the input; retained
// kinds (Submit and friends) and FetchVal lists are copies even under
// DecodeBorrowed, so a released buffer can never reach long-lived state.
func TestBorrowedDecodeAliasesBuffer(t *testing.T) {
	qid := QueryID{Origin: 1, Seq: 3}
	data := Encode(&Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{{Birth: 2, Seq: 9}}, Token: []byte{9, 9}})
	m, err := DecodeBorrowed(data)
	if err != nil {
		t.Fatal(err)
	}
	d := m.(*Deref)
	// Scribbling on the buffer must show through the borrowed fields.
	for i := range data {
		data[i] = 'Z'
	}
	if d.Body == "S -> T" {
		t.Fatal("Deref.Body was copied; expected a borrowed alias")
	}
	if d.Token[0] == 9 {
		t.Fatal("Deref.Token was copied; expected a borrowed alias")
	}

	sub := Encode(&Submit{QID: qid, Client: 7, ClientAddr: "127.0.0.1:9", Body: "S -> T"})
	m, err = DecodeBorrowed(sub)
	if err != nil {
		t.Fatal(err)
	}
	s := m.(*Submit)
	for i := range sub {
		sub[i] = 'Z'
	}
	if s.Body != "S -> T" || s.ClientAddr != "127.0.0.1:9" {
		t.Fatal("Submit fields were borrowed; retained kinds must copy")
	}

	res := Encode(&Result{QID: qid, Count: 1, Fetches: []FetchVal{{Var: "v", From: object.ID{Birth: 2, Seq: 9}, Val: object.String("xyz")}}})
	m, err = DecodeBorrowed(res)
	if err != nil {
		t.Fatal(err)
	}
	r := m.(*Result)
	for i := range res {
		res[i] = 'Z'
	}
	if r.Fetches[0].Var != "v" || r.Fetches[0].Val.Str != "xyz" {
		t.Fatal("FetchVal fields were borrowed; fetches must always copy")
	}
}

// TestReadBufLifecycle: retain/release counting, pooling via ReadFrameBuf,
// and the use-after-release detector (armed only in race builds).
func TestReadBufLifecycle(t *testing.T) {
	payload := Encode(&Ack{Seq: 42})
	frame := AppendFrame(nil, Frame{From: 3, Epoch: 1, Seq: 7, Payload: payload})
	fr, buf, err := ReadFrameBuf(bytes.NewReader(frame), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Payload, payload) {
		t.Fatal("pooled frame payload differs")
	}
	buf.Retain()
	buf.Release()
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("payload changed while a reference was live")
	}
	buf.Release()
	if poisonOnRelease {
		for i, b := range fr.Payload {
			if b != 0xDB {
				t.Fatalf("byte %d = %#x after final release; want poison 0xDB", i, b)
			}
		}
	}
}

// TestReadBufOverReleasePanics: a second final release is a refcount bug and
// must fail loudly rather than double-pool the buffer.
func TestReadBufOverReleasePanics(t *testing.T) {
	buf := newReadBuf(4)
	buf.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	buf.Release()
}

// TestNilReadBufRelease: releasing a nil buffer is a no-op.
func TestNilReadBufRelease(t *testing.T) {
	var buf *ReadBuf
	buf.Release()
}

// TestEncodeToAppends: EncodeTo must append after existing bytes and yield
// exactly Encode's output, and GetBuf/PutBuf must hand back usable scratch.
func TestEncodeToAppends(t *testing.T) {
	m := &Control{QID: QueryID{Origin: 2, Seq: 5}, Token: []byte{1, 2, 3}}
	want := Encode(m)
	got := EncodeTo([]byte("prefix"), m)
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[6:], want) {
		t.Fatal("EncodeTo did not append canonically")
	}
	b := GetBuf()
	*b = EncodeTo(*b, m)
	if !bytes.Equal(*b, want) {
		t.Fatal("EncodeTo into pooled buffer differs from Encode")
	}
	PutBuf(b)
	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	PutBuf(b2)
}
