package termination

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"

	"hyperfile/internal/object"
)

// maxExp bounds a credit's binary exponent, and through "a share is at most
// 1" its mantissa at maxExp bits (64 KiB): a query may halve one credit
// half a million times in series (the deepest workload does 270). Decode
// checks it before anything is allocated or shifted, and a split that would
// pass it is refused, so no site emits a token its peers reject.
const maxExp = 1 << 19

// credit is the dyadic rational mant·2⁻ᵉˣᵖ. Credits only ever halve and add,
// so this form is closed and exact with no GCD, product or quotient: halving
// increments exp, adding aligns by a shift and drops trailing zeros.
// Canonical form: mant is odd unless exp is 0 (whole numbers, of which only
// 0 and 1 occur in a run without protocol violations). The zero value is 0.
type credit struct {
	mant big.Int
	exp  uint
}

func (c *credit) isZero() bool { return c.mant.Sign() == 0 }

// reset zeroes c and keeps the mantissa's storage for the next value.
func (c *credit) reset() { c.mant.SetUint64(0); c.exp = 0 }

func (c *credit) isOne() bool {
	return c.exp == 0 && c.mant.IsInt64() && c.mant.Int64() == 1
}

// exceedsOne compares by bit length: an odd mant with more bits than exp is
// above 2ᵉˣᵖ, and 1 itself is the only whole number that is not.
func (c *credit) exceedsOne() bool {
	return c.mant.BitLen() > int(c.exp) && !c.isOne()
}

func (c *credit) String() string { return fmt.Sprintf("%v/2^%d", &c.mant, c.exp) }

// halve divides c by two. The share a split sends and the share it keeps are
// this same number.
func (c *credit) halve() {
	if c.exp == 0 && c.mant.Bit(0) == 0 {
		c.mant.Rsh(&c.mant, 1) // a whole number above 1: only after a duplicated token
		return
	}
	c.exp++
}

// absorb moves d's credit into c and leaves d zero. Credit is moved, never
// copied, and d's storage is the scratch for the alignment shift, so a
// steady-state merge allocates nothing.
func (c *credit) absorb(d *credit) {
	switch {
	case c.isZero():
		c.mant.Set(&d.mant)
		c.exp = d.exp
	case c.exp < d.exp:
		c.mant.Lsh(&c.mant, d.exp-c.exp)
		c.exp = d.exp
		c.mant.Add(&c.mant, &d.mant)
	default:
		d.mant.Lsh(&d.mant, c.exp-d.exp)
		c.mant.Add(&c.mant, &d.mant)
	}
	d.reset()
	if c.isZero() {
		c.exp = 0
	} else if tz := min(c.mant.TrailingZeroBits(), c.exp); tz > 0 {
		c.mant.Rsh(&c.mant, tz)
		c.exp -= tz
	}
}

// encode returns c's token: the exponent as a canonical uvarint, then the
// mantissa as minimal big-endian bytes. Each value has exactly one encoding,
// which Audit's outstanding-token ledger relies on.
func (c *credit) encode() []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(c.exp))
	out := make([]byte, n+(c.mant.BitLen()+7)/8)
	copy(out, hdr[:n])
	c.mant.FillBytes(out[n:])
	return out
}

// Decode failures are values, not formatted per call: rejecting a hostile
// token allocates nothing.
var (
	errExponent  = tokenErr("truncated, overlong or out-of-range credit exponent")
	errMantissa  = tokenErr("credit mantissa is empty, zero-padded or even")
	errShareSize = tokenErr("credit share exceeds 1")
)

// decode sets c to a token's share, which must be in (0, 1] and in the one
// form encode produces. Every check runs on the token's bytes, before the
// mantissa is built.
func (c *credit) decode(token []byte) error {
	exp, n := binary.Uvarint(token)
	if n <= 0 || (n > 1 && token[n-1] == 0) || exp > maxExp {
		return errExponent
	}
	body := token[n:]
	if len(body) == 0 || body[0] == 0 || body[len(body)-1]&1 == 0 {
		return errMantissa
	}
	// An odd mantissa is at most 2ᵉˣᵖ when it has at most exp bits, or is 1.
	if bitLen := uint64(len(body)-1)*8 + uint64(bits.Len8(body[0])); bitLen > exp && !(exp == 0 && bitLen == 1) {
		return errShareSize
	}
	c.mant.SetBytes(body)
	c.exp = uint(exp)
	return nil
}

// weighted implements the credit-recovery algorithm with exact dyadic
// credits. Invariant: held(all sites) + in-flight(all messages) + recovered
// (at originator) == 1, so Done (recovered == 1) holds iff nothing is active
// anywhere.
type weighted struct {
	self, origin object.SiteID
	held         credit
	recovered    credit // originator only
	in           credit // scratch: the arriving token, decoded
	m            Metrics
}

var _ Detector = (*weighted)(nil)

func newWeighted(self, origin object.SiteID, m Metrics) *weighted {
	w := &weighted{self: self, origin: origin, m: m}
	if self == origin {
		w.held.mant.SetUint64(1)
	}
	return w
}

func (w *weighted) isOrigin() bool { return w.self == w.origin }

// OnSend halves the held credit and attaches one half to the message.
func (w *weighted) OnSend(object.SiteID) ([]byte, error) {
	if w.held.isZero() {
		// Can only happen through a protocol violation: sending work while
		// holding no credit would break the conservation invariant.
		return nil, tokenErr("site %v sending work while holding no credit", w.self)
	}
	if w.held.exp >= maxExp {
		return nil, tokenErr("site %v cannot halve a credit of exponent %d any further", w.self, w.held.exp)
	}
	w.held.halve()
	w.m.Splits.Inc()
	return w.held.encode(), nil
}

// OnWorkReceived adds the message's credit share to the held credit.
func (w *weighted) OnWorkReceived(_ object.SiteID, token []byte) ([]ControlMsg, error) {
	if err := w.in.decode(token); err != nil {
		return nil, err
	}
	w.held.absorb(&w.in)
	return nil, nil
}

// HandOff moves all held credit onto an outgoing work message's token, which
// must be one this detector's OnSend emitted and that has not been sent yet.
// The merged share travels with the work instead of returning home in a
// Control of its own. On a malformed token held is left untouched.
func (w *weighted) HandOff(token []byte) ([]byte, error) {
	if err := w.in.decode(token); err != nil {
		return nil, err
	}
	w.in.absorb(&w.held)
	w.m.HandOffs.Inc()
	return w.in.encode(), nil
}

// OnIdle returns all held credit to the originator. At the originator itself
// the credit moves directly to the recovered pool.
func (w *weighted) OnIdle() []ControlMsg {
	if w.held.isZero() {
		return nil
	}
	w.m.Returns.Inc()
	if w.isOrigin() {
		w.recovered.absorb(&w.held)
		return nil
	}
	token := w.held.encode()
	w.held.reset()
	return []ControlMsg{{To: w.origin, Token: token}}
}

// OnControl (originator only) banks a returned credit share.
func (w *weighted) OnControl(_ object.SiteID, token []byte) error {
	if err := w.in.decode(token); err != nil {
		return err
	}
	if !w.isOrigin() {
		return tokenErr("credit return received by non-originator %v", w.self)
	}
	w.recovered.absorb(&w.in)
	if w.recovered.exceedsOne() {
		return tokenErr("recovered credit exceeds 1: %v", &w.recovered)
	}
	return nil
}

// Done reports whether the originator has recovered the full credit.
func (w *weighted) Done() bool { return w.isOrigin() && w.recovered.isOne() }
