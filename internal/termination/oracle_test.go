package termination

import (
	"encoding/binary"
	"math/big"
	"testing"

	"hyperfile/internal/object"
)

// ratWeighted is the weighted detector as it was before credits became
// dyadic: exact math/big.Rat arithmetic and a token of two length-prefixed
// big-endian integers. It survives as the oracle the dyadic detector is
// checked against, step for step.
type ratWeighted struct {
	self, origin object.SiteID
	held         *big.Rat
	recovered    *big.Rat
}

func newRatWeighted(self, origin object.SiteID) *ratWeighted {
	w := &ratWeighted{self: self, origin: origin, held: new(big.Rat), recovered: new(big.Rat)}
	if self == origin {
		w.held.SetInt64(1)
	}
	return w
}

func (w *ratWeighted) isOrigin() bool { return w.self == w.origin }

func (w *ratWeighted) OnSend(object.SiteID) ([]byte, error) {
	if w.held.Sign() <= 0 {
		return nil, tokenErr("site %v sending work while holding no credit", w.self)
	}
	half := new(big.Rat).Quo(w.held, big.NewRat(2, 1))
	w.held.Sub(w.held, half)
	return encodeRat(half), nil
}

func (w *ratWeighted) OnWorkReceived(_ object.SiteID, token []byte) ([]ControlMsg, error) {
	c, err := decodeRat(token)
	if err != nil {
		return nil, err
	}
	if c.Sign() <= 0 {
		return nil, tokenErr("non-positive credit share")
	}
	w.held.Add(w.held, c)
	return nil, nil
}

func (w *ratWeighted) HandOff(token []byte) ([]byte, bool, error) {
	c, err := decodeRat(token)
	if err != nil {
		return nil, false, err
	}
	c.Add(c, w.held)
	w.held.SetInt64(0)
	return encodeRat(c), true, nil
}

func (w *ratWeighted) OnIdle() []ControlMsg {
	if w.held.Sign() == 0 {
		return nil
	}
	c := new(big.Rat).Set(w.held)
	w.held.SetInt64(0)
	if w.isOrigin() {
		w.recovered.Add(w.recovered, c)
		return nil
	}
	return []ControlMsg{{To: w.origin, Token: encodeRat(c)}}
}

func (w *ratWeighted) OnControl(_ object.SiteID, token []byte) error {
	c, err := decodeRat(token)
	if err != nil {
		return err
	}
	if !w.isOrigin() {
		return tokenErr("credit return received by non-originator %v", w.self)
	}
	w.recovered.Add(w.recovered, c)
	if w.recovered.Cmp(big.NewRat(1, 1)) > 0 {
		return tokenErr("recovered credit exceeds 1: %v", w.recovered)
	}
	return nil
}

func (w *ratWeighted) Done() bool {
	return w.isOrigin() && w.recovered.Cmp(big.NewRat(1, 1)) == 0
}

func (w *ratWeighted) Quiet() bool { return w.held.Sign() == 0 }

func encodeRat(r *big.Rat) []byte {
	num := r.Num().Bytes()
	den := r.Denom().Bytes()
	out := make([]byte, 0, 4+len(num)+len(den))
	for _, chunk := range [][]byte{num, den} {
		out = append(out, byte(len(chunk)>>8), byte(len(chunk)))
		out = append(out, chunk...)
	}
	return out
}

func decodeRat(token []byte) (*big.Rat, error) {
	var ints [2]*big.Int
	for i := range ints {
		if len(token) < 2 {
			return nil, tokenErr("truncated chunk header")
		}
		n := int(token[0])<<8 | int(token[1])
		token = token[2:]
		if len(token) < n {
			return nil, tokenErr("truncated chunk body")
		}
		ints[i] = new(big.Int).SetBytes(token[:n])
		token = token[n:]
	}
	if len(token) != 0 {
		return nil, tokenErr("trailing bytes in credit token")
	}
	if ints[1].Sign() == 0 {
		return nil, tokenErr("zero denominator")
	}
	return new(big.Rat).SetFrac(ints[0], ints[1]), nil
}

// rat converts a credit to the oracle's representation.
func (c *credit) rat() *big.Rat {
	return new(big.Rat).SetFrac(&c.mant, new(big.Int).Lsh(big.NewInt(1), c.exp))
}

// creditOf builds the canonical credit num/2^exp (num need not be odd).
func creditOf(num *big.Int, exp uint) *credit {
	c := &credit{}
	d := credit{exp: exp}
	d.mant.Set(num)
	c.absorb(&d)
	return c
}

// diffDetector drives the dyadic detector and the big.Rat oracle in lock
// step behind one Detector, so any schedule written against the interface is
// a differential test. Its token is the dyadic token and the oracle's, the
// first length-prefixed. After every call it requires: the same error or
// none, the same Done and Quiet, every emitted pair of tokens worth the same
// rational, and each dyadic token the one encoding of its value.
type diffDetector struct {
	t testing.TB
	w *weighted
	o *ratWeighted
}

func newDiff(t testing.TB, self, origin object.SiteID) Detector {
	return &diffDetector{t: t, w: newWeighted(self, origin, Metrics{}), o: newRatWeighted(self, origin)}
}

func (d *diffDetector) pack(tok, otok []byte) []byte {
	d.t.Helper()
	var c credit
	if err := c.decode(tok); err != nil {
		d.t.Fatalf("emitted token %x does not decode: %v", tok, err)
	}
	if again := c.encode(); string(again) != string(tok) {
		d.t.Fatalf("encode(decode(%x)) = %x", tok, again)
	}
	want, err := decodeRat(otok)
	if err != nil {
		d.t.Fatalf("oracle token: %v", err)
	}
	if got := c.rat(); got.Cmp(want) != 0 {
		d.t.Fatalf("token worth %v, oracle %v", got, want)
	}
	return append(append(binary.AppendUvarint(nil, uint64(len(tok))), tok...), otok...)
}

func (d *diffDetector) unpack(token []byte) (tok, otok []byte) {
	n, k := binary.Uvarint(token)
	return token[k : k+int(n)], token[k+int(n):]
}

func (d *diffDetector) agree(op string, err, oerr error) {
	d.t.Helper()
	if (err == nil) != (oerr == nil) {
		d.t.Fatalf("%s: error %v, oracle %v", op, err, oerr)
	}
	if d.w.Done() != d.o.Done() || d.w.Quiet() != d.o.Quiet() {
		d.t.Fatalf("%s: done/quiet %v/%v, oracle %v/%v", op, d.w.Done(), d.w.Quiet(), d.o.Done(), d.o.Quiet())
	}
	if d.w.held.rat().Cmp(d.o.held) != 0 || d.w.recovered.rat().Cmp(d.o.recovered) != 0 {
		d.t.Fatalf("%s: held %v recovered %v, oracle %v %v", op, &d.w.held, &d.w.recovered, d.o.held, d.o.recovered)
	}
}

func (d *diffDetector) OnSend(to object.SiteID) ([]byte, error) {
	tok, err := d.w.OnSend(to)
	otok, oerr := d.o.OnSend(to)
	d.agree("OnSend", err, oerr)
	if err != nil {
		return nil, err
	}
	return d.pack(tok, otok), nil
}

func (d *diffDetector) OnWorkReceived(from object.SiteID, token []byte) ([]ControlMsg, error) {
	tok, otok := d.unpack(token)
	_, err := d.w.OnWorkReceived(from, tok)
	_, oerr := d.o.OnWorkReceived(from, otok)
	d.agree("OnWorkReceived", err, oerr)
	return nil, err
}

func (d *diffDetector) HandOff(token []byte) ([]byte, bool, error) {
	tok, otok := d.unpack(token)
	merged, ok, err := d.w.HandOff(tok)
	omerged, ook, oerr := d.o.HandOff(otok)
	d.agree("HandOff", err, oerr)
	if ok != ook {
		d.t.Fatalf("HandOff: ok %v, oracle %v", ok, ook)
	}
	if err != nil || !ok {
		return nil, ok, err
	}
	return d.pack(merged, omerged), true, nil
}

func (d *diffDetector) OnIdle() []ControlMsg {
	cms, ocms := d.w.OnIdle(), d.o.OnIdle()
	d.agree("OnIdle", nil, nil)
	if len(cms) != len(ocms) {
		d.t.Fatalf("OnIdle: %d control messages, oracle %d", len(cms), len(ocms))
	}
	for i := range cms {
		if cms[i].To != ocms[i].To {
			d.t.Fatalf("OnIdle: return to %v, oracle %v", cms[i].To, ocms[i].To)
		}
		cms[i].Token = d.pack(cms[i].Token, ocms[i].Token)
	}
	return cms
}

func (d *diffDetector) OnControl(from object.SiteID, token []byte) error {
	tok, otok := d.unpack(token)
	err, oerr := d.w.OnControl(from, tok), d.o.OnControl(from, otok)
	d.agree("OnControl", err, oerr)
	return err
}

func (d *diffDetector) Done() bool  { return d.w.Done() }
func (d *diffDetector) Quiet() bool { return d.w.Quiet() }
