package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"hyperfile/internal/object"
)

// FuzzDecode exercises the codec against arbitrary bytes; it must never
// panic and must round-trip anything it accepts. Seeds cover every message
// kind. Run `go test -fuzz=FuzzDecode ./internal/wire` for deep fuzzing;
// plain `go test` runs the seed corpus.
func FuzzDecode(f *testing.F) {
	id := object.ID{Birth: 2, Seq: 9}
	qid := QueryID{Origin: 1, Seq: 3}
	seeds := []Msg{
		&Submit{QID: qid, Client: 7, ClientAddr: "127.0.0.1:1", Body: "S -> T", Initial: []object.ID{id}},
		&Result{QID: qid, IDs: []object.ID{id}, Count: 1, Token: []byte{2},
			Fetches: []FetchVal{{Var: "v", From: id, Val: object.String("x")}}},
		&Control{QID: qid, Token: []byte{0, 1, 0, 1}},
		&Finish{QID: qid, Retain: true},
		&Complete{QID: qid, IDs: []object.ID{id}, Count: 1, Partial: true, Err: "e"},
		&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid, Token: []byte{3}},
		&Result{QID: qid, Count: 0, Unreachable: []object.SiteID{2, 5}},
		&Complete{QID: qid, Partial: true, Unreachable: []object.SiteID{3}},
		&Deref{QID: qid, Origin: 1, ObjIDs: []object.ID{id}, Hop: 3},
		&Deref{QID: qid, Origin: 1, Body: "S -> T", ObjIDs: []object.ID{id, {Birth: 3, Seq: 1}, {Birth: 4, Seq: 2}}, Start: 1, Token: []byte{2}, Hop: 1},
		&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid, Hop: 1},
		&Migrate{Seq: 4, ID: id, To: 2, Client: 9, ClientAddr: "a:1", Hops: 1},
		&MigrateData{Seq: 4, Obj: []byte{1, 2}, Client: 9, ClientAddr: "a:1"},
		&MigrateDone{ID: id, NewSite: 2},
		&Migrated{Seq: 4, ID: id, OK: false, Err: "gone"},
		&StatsReq{Seq: 1, ClientAddr: "a:1"},
		&StatsResp{Seq: 1, Site: 2, Contexts: 3, Objects: 4, Counters: []Counter{{Name: "n", Value: 5}}},
		&Ack{Seq: 42},
		&Ack{Seq: 9, Cum: 7},
		&Heartbeat{Seq: 7},
		&Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 250_000},
		&Deref{QID: qid, Origin: 1, ObjIDs: []object.ID{id}, Token: []byte{1}, BudgetUS: 99},
		&Seed{QID: qid, Origin: 1, Body: "S -> T", FromQID: qid, BudgetUS: 400},
		&Reject{QID: qid, Reason: "admission queue full"},
		&Cancel{QID: qid, Reason: "deadline expired"},
		&Complete{QID: qid, Partial: true, Reason: "cancelled by client"},
		&Submit{QID: qid, Client: 7, Body: "S -> T", ClientID: 42},
		&Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 250_000, ClientID: 1 << 40},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	every := everyField()
	for _, name := range sortedKeys(every) {
		f.Add(Encode(every[name]))
	}
	// Frames cut one byte short, which never decode.
	short := Encode(&Submit{QID: qid, Client: 7, Body: "S -> T", BudgetUS: 9})
	f.Add(short[:len(short)-1])
	short = Encode(&Ack{Seq: 9})
	f.Add(short[:len(short)-1])
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			// Borrowed decode must reject exactly what copying decode
			// rejects.
			if _, berr := DecodeBorrowed(data); berr == nil {
				t.Fatalf("DecodeBorrowed accepted what Decode rejected: %v", err)
			}
			return
		}
		// Accepted messages must re-encode and decode to the same payload
		// semantics (encoding is canonical, so bytes match too).
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if string(Encode(m2)) != string(re) {
			t.Fatalf("canonical encoding unstable")
		}
		// Zero-copy equivalence: the borrowed decode of the same bytes must
		// be byte-for-byte the same message once re-encoded.
		mb, err := DecodeBorrowed(data)
		if err != nil {
			t.Fatalf("DecodeBorrowed rejected what Decode accepted: %v", err)
		}
		if string(EncodeTo(nil, mb)) != string(re) {
			t.Fatalf("borrowed decode differs from copying decode")
		}
	})
}

// FuzzFrame runs arbitrary byte streams through the transport frame reader:
// it must never panic, must reject corrupt headers (wrong magic, oversized
// length prefix) with ErrFrame, and must round-trip any frame it accepts.
// Truncated streams (short length prefix, short payload) surface as io
// errors, never as a hang or a huge allocation.
//
// Beyond the f.Add seeds below, go test auto-loads the committed corpus in
// testdata/fuzz/FuzzFrame — a frame per message kind with every field set
// (see corpusSeeds in corpus_test.go) — so that coverage survives CI
// fuzz-cache loss.
func FuzzFrame(f *testing.F) {
	const maxPayload = 1 << 16
	good := AppendFrame(nil, Frame{From: 3, Epoch: 9, Seq: 1, Payload: Encode(&Ack{Seq: 1})})
	f.Add(good)
	f.Add(good[:len(good)-1])                        // truncated payload
	f.Add(good[:6])                                  // short length prefix
	f.Add([]byte{'H', 'F', 0, 1, 0, 0, 0, 0})        // old version byte
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 9, 6, 1})      // pre-magic framing
	f.Add(AppendFrame(nil, Frame{From: 1, Seq: 0}))  // unreliable, empty payload
	f.Add(append(good, good...))                     // two frames back to back
	f.Add(append(FrameMagic[:], 255, 255, 255, 255)) // huge length prefix
	// A well-formed frame of the previous wire version, refused at its
	// header.
	prev := AppendFrameMsg(nil, 2, 1, 2, &Deref{
		QID: QueryID{Origin: 1, Seq: 3}, Origin: 1, ObjIDs: []object.ID{{Birth: 2, Seq: 9}}, Token: []byte{1, 1},
	})
	prev[3] = 2
	f.Add(prev)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rb := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r, maxPayload)
			// The pooled reader must accept, reject, and parse the exact
			// same stream.
			frB, buf, errB := ReadFrameBuf(rb, maxPayload)
			if (err == nil) != (errB == nil) {
				t.Fatalf("ReadFrame err %v but ReadFrameBuf err %v", err, errB)
			}
			if err == nil {
				if frB.From != fr.From || frB.Epoch != fr.Epoch || frB.Seq != fr.Seq || !bytes.Equal(frB.Payload, fr.Payload) {
					t.Fatalf("ReadFrameBuf frame differs from ReadFrame")
				}
				// The zero-copy receive path end to end: a payload the
				// copying decode accepts must decode borrowed from the
				// pooled buffer to the identical message, and one it
				// rejects must be rejected borrowed too.
				if mc, derr := Decode(fr.Payload); derr == nil {
					mb, berr := DecodeBorrowed(frB.Payload)
					if berr != nil {
						t.Fatalf("DecodeBorrowed rejected framed payload Decode accepted: %v", berr)
					}
					if !bytes.Equal(Encode(mb), Encode(mc)) {
						t.Fatalf("borrowed decode of framed payload differs from copying decode")
					}
				} else if _, berr := DecodeBorrowed(frB.Payload); berr == nil {
					t.Fatalf("DecodeBorrowed accepted framed payload Decode rejected: %v", derr)
				}
				buf.Release()
			}
			if err != nil {
				if !errors.Is(err, ErrFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(fr.Payload) > maxPayload {
				t.Fatalf("payload %d exceeds cap", len(fr.Payload))
			}
			re := AppendFrame(nil, fr)
			fr2, err := ReadFrame(bytes.NewReader(re), maxPayload)
			if err != nil {
				t.Fatalf("re-read failed: %v", err)
			}
			if fr2.From != fr.From || fr2.Epoch != fr.Epoch || fr2.Seq != fr.Seq || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("frame round-trip mismatch")
			}
		}
	})
}
