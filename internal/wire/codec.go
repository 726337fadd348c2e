package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hyperfile/internal/object"
)

// ErrDecode is the base error for malformed wire data.
var ErrDecode = errors.New("wire: decode error")

// Encode serializes a message to the compact binary wire form: a kind byte
// followed by the payload fields in order, integers as uvarints and
// strings/byte-slices length-prefixed.
func Encode(m Msg) []byte {
	return EncodeTo(make([]byte, 0, 64), m)
}

// EncodeTo appends m's wire form to dst and returns the extended slice. It
// is the allocation-free form of Encode: callers on the hot path encode
// into a pooled buffer (GetBuf/PutBuf) or directly into a frame under
// construction (AppendFrameMsg) instead of allocating per message. It only
// reads m, so one message may be encoded from several goroutines at once.
func EncodeTo(dst []byte, m Msg) []byte {
	k := m.Kind()
	// Deref frames always encode in the batched layout. KDeref stays on the
	// wire only as a legacy single-id layout that Decode still accepts.
	if k == KDeref {
		k = KDerefBatch
	}
	c := coder{buf: append(dst, uint8(k))}
	walk(&c, m)
	return c.buf
}

// Decode parses a message from its wire form. Every string and byte field
// of the result is an independent copy; the message never references data.
func Decode(data []byte) (Msg, error) {
	return decode(data, false)
}

// DecodeBorrowed parses a message whose string and byte fields alias data
// directly, copying nothing. The caller owns the lifetime contract: the
// returned message and everything extracted from it must not be used after
// data is invalidated — in the transport, after the frame's ReadBuf is
// released.
//
// Message kinds that receivers retain wholesale (Submit parks in the
// admission queue; StatsReq, Migrate, and MigrateData carry client addresses
// stored for later replies) fall back to copying decode, as do FetchVal
// lists on any kind (the originator accumulates them across the whole
// query). Tokens, bodies, and reasons are borrowed: tokens are decoded by
// the termination detectors at dispatch, and bodies are cloned at their two
// retention points (context creation, plan cache install).
func DecodeBorrowed(data []byte) (Msg, error) {
	return decode(data, true)
}

// borrowedWholesale reports whether kind may be decoded with borrowed
// fields: kinds a receiver stores beyond the dispatch of one message must
// be fully copied instead.
func borrowedWholesale(k Kind) bool {
	switch k {
	case KSubmit, KStatsReq, KMigrate, KMigrateData:
		return false
	default:
		// Every other kind is consumed within one dispatch; its strings and
		// byte slices may alias the read buffer.
		return true
	}
}

func decode(data []byte, borrow bool) (Msg, error) {
	c := coder{buf: data, dec: true}
	var k uint8
	c.u8(&k)
	kind := Kind(k)
	c.borrow = borrow && borrowedWholesale(kind)
	m := newMsg(kind)
	switch {
	case m == nil:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrDecode, kind)
	case kind == KDeref:
		m.(*Deref).walkLegacy(&c)
	default:
		walk(&c, m)
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.buf) != c.pos {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(c.buf)-c.pos)
	}
	return m, nil
}

// newMsg returns a zero message of kind k to decode into, nil if k is
// unknown. Both Deref layouts decode into a Deref.
func newMsg(k Kind) Msg {
	switch k {
	case KSubmit:
		return new(Submit)
	case KDeref, KDerefBatch:
		return new(Deref)
	case KResult:
		return new(Result)
	case KControl:
		return new(Control)
	case KFinish:
		return new(Finish)
	case KComplete:
		return new(Complete)
	case KSeed:
		return new(Seed)
	case KReject:
		return new(Reject)
	case KCancel:
		return new(Cancel)
	case KMigrate:
		return new(Migrate)
	case KMigrateData:
		return new(MigrateData)
	case KMigrateDone:
		return new(MigrateDone)
	case KMigrated:
		return new(Migrated)
	case KStatsReq:
		return new(StatsReq)
	case KStatsResp:
		return new(StatsResp)
	case KAck:
		return new(Ack)
	case KHeartbeat:
		return new(Heartbeat)
	}
	return nil
}

// walk runs m's layout over c. It is the one dispatch both directions
// share; the calls are static so that c stays on its caller's stack.
func walk(c *coder, m Msg) {
	switch m := m.(type) {
	case *Submit:
		m.walk(c)
	case *Deref:
		m.walk(c)
	case *Result:
		m.walk(c)
	case *Control:
		m.walk(c)
	case *Finish:
		m.walk(c)
	case *Complete:
		m.walk(c)
	case *Seed:
		m.walk(c)
	case *Reject:
		m.walk(c)
	case *Cancel:
		m.walk(c)
	case *Migrate:
		m.walk(c)
	case *MigrateData:
		m.walk(c)
	case *MigrateDone:
		m.walk(c)
	case *Migrated:
		m.walk(c)
	case *StatsReq:
		m.walk(c)
	case *StatsResp:
		m.walk(c)
	case *Ack:
		m.walk(c)
	case *Heartbeat:
		m.walk(c)
	}
}

// The message layouts. Each walk lists its message's fields once, in wire
// order. A field added to a message goes at the end of its walk behind
// c.tail, so frames from senders that predate it still decode; a frozen
// frame in the compat corpus (corpus_test.go) pins every layout's bytes.

func (m *Submit) walk(c *coder) {
	c.qid(&m.QID)
	c.site(&m.Client)
	c.str(&m.ClientAddr)
	c.str(&m.Body)
	c.ids(&m.Initial)
	c.qid(&m.InitialFromResultOf)
	// Frames predating time budgets end here.
	if c.tail(true) {
		c.u64(&m.BudgetUS)
	}
	// Frames predating client ids end here.
	if c.tail(true) {
		c.u64(&m.ClientID)
	}
}

func (m *Deref) walk(c *coder) {
	c.qid(&m.QID)
	c.site(&m.Origin)
	c.str(&m.Body)
	c.ids(&m.ObjIDs)
	m.walkCursor(c)
	// Frames predating the plan cache end here.
	if c.tail(true) {
		c.bytes(&m.BodyHash)
	}
	// Frames predating time budgets end here.
	if c.tail(true) {
		c.u64(&m.BudgetUS)
	}
	// Frames end here. Older senders appended the trace spans handed on
	// with the credit, which decoding drops.
	if c.tail(false) {
		c.droppedSpans()
	}
}

// walkLegacy decodes the pre-batching KDeref layout, which is never
// encoded: exactly one object id, not length-prefixed, then the cursor.
func (m *Deref) walkLegacy(c *coder) {
	c.qid(&m.QID)
	c.site(&m.Origin)
	c.str(&m.Body)
	m.ObjIDs = make([]object.ID, 1)
	c.id(&m.ObjIDs[0])
	m.walkCursor(c)
}

// walkCursor is the part of a Deref both its layouts share. The list after
// Start held the paper's iteration-number stack. Start carries the depth now,
// so encoders leave the list empty and decoding drops what older senders
// put there.
func (m *Deref) walkCursor(c *coder) {
	c.int(&m.Start)
	var iters []int
	c.ints(&iters)
	c.bytes(&m.Token)
	c.u32(&m.Hop)
}

func (m *Result) walk(c *coder) {
	c.qid(&m.QID)
	c.ids(&m.IDs)
	c.fetches(&m.Fetches)
	c.int(&m.Count)
	c.bool(&m.Retained)
	c.bytes(&m.Token)
	c.sites(&m.Unreachable)
	c.droppedSpans()
}

func (m *Control) walk(c *coder) {
	c.qid(&m.QID)
	c.bytes(&m.Token)
	c.droppedSpans()
}

func (m *Finish) walk(c *coder) {
	c.qid(&m.QID)
	c.bool(&m.Retain)
}

func (m *Complete) walk(c *coder) {
	c.qid(&m.QID)
	c.ids(&m.IDs)
	c.fetches(&m.Fetches)
	c.int(&m.Count)
	c.bool(&m.Distributed)
	c.bool(&m.Partial)
	c.str(&m.Err)
	c.sites(&m.Unreachable)
	c.droppedSpans()
	// Frames predating partial-answer reasons end here.
	if c.tail(true) {
		c.str(&m.Reason)
	}
}

func (m *Seed) walk(c *coder) {
	c.qid(&m.QID)
	c.site(&m.Origin)
	c.str(&m.Body)
	c.qid(&m.FromQID)
	c.bytes(&m.Token)
	c.u32(&m.Hop)
	// Frames predating time budgets end here.
	if c.tail(true) {
		c.u64(&m.BudgetUS)
	}
}

func (m *Reject) walk(c *coder) {
	c.qid(&m.QID)
	c.str(&m.Reason)
}

func (m *Cancel) walk(c *coder) {
	c.qid(&m.QID)
	c.str(&m.Reason)
}

func (m *Migrate) walk(c *coder) {
	c.u64(&m.Seq)
	c.id(&m.ID)
	c.site(&m.To)
	c.site(&m.Client)
	c.str(&m.ClientAddr)
	c.u8(&m.Hops)
}

func (m *MigrateData) walk(c *coder) {
	c.u64(&m.Seq)
	c.bytes(&m.Obj)
	c.site(&m.Client)
	c.str(&m.ClientAddr)
}

func (m *MigrateDone) walk(c *coder) {
	c.id(&m.ID)
	c.site(&m.NewSite)
}

func (m *Migrated) walk(c *coder) {
	c.u64(&m.Seq)
	c.id(&m.ID)
	c.bool(&m.OK)
	c.str(&m.Err)
}

func (m *StatsReq) walk(c *coder) {
	c.u64(&m.Seq)
	c.str(&m.ClientAddr)
}

func (m *StatsResp) walk(c *coder) {
	c.u64(&m.Seq)
	c.site(&m.Site)
	c.u64(&m.Contexts)
	c.u64(&m.Objects)
	cs := slice(c, &m.Counters)
	for i := range cs {
		c.str(&cs[i].Name)
		c.u64(&cs[i].Value)
	}
}

func (m *Ack) walk(c *coder) {
	c.u64(&m.Seq)
	// Frames predating cumulative acks end here.
	if c.tail(true) {
		c.u64(&m.Cum)
	}
}

func (m *Heartbeat) walk(c *coder) {
	c.u64(&m.Seq)
}

// coder walks a message layout in one of two directions. Encoding appends
// each field to buf and never writes to the message. Decoding reads each
// field from buf at pos into the message; the first malformed field sets
// err, and every read after it yields zero. Each primitive below handles
// both directions; those on the hot path encode with inlined appends and
// no nested calls, which keeps an encode close to a hand-written one.
type coder struct {
	buf []byte
	pos int
	err error
	dec bool
	// borrow makes decoded strings and byte slices alias buf instead of
	// copying (see DecodeBorrowed); fetches always copy regardless.
	borrow bool
}

func (c *coder) fail(msg string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at byte %d", ErrDecode, msg, c.pos)
	}
}

// tail guards a trailing optional field: encoding writes it when present,
// decoding reads it when bytes remain.
func (c *coder) tail(present bool) bool {
	if c.dec {
		return c.err == nil && c.pos < len(c.buf)
	}
	return present
}

// put appends a uvarint.
func (c *coder) put(x uint64) {
	c.buf = binary.AppendUvarint(c.buf, x)
}

// get reads a uvarint; it is for decoding only.
func (c *coder) get() (x uint64) {
	c.u64(&x)
	return x
}

// u8 walks one raw byte.
func (c *coder) u8(v *uint8) {
	switch {
	case !c.dec:
		c.buf = append(c.buf, *v)
	case c.err == nil && c.pos < len(c.buf):
		*v = c.buf[c.pos]
		c.pos++
	default:
		c.fail("truncated byte")
	}
}

func (c *coder) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.dec {
		*v = b != 0
	}
}

func (c *coder) u64(v *uint64)         { uvarint(c, v) }
func (c *coder) u32(v *uint32)         { uvarint(c, v) }
func (c *coder) int(v *int)            { uvarint(c, v) }
func (c *coder) site(v *object.SiteID) { uvarint(c, v) }

// uvarint walks an integer field as a uvarint. Decoding truncates to the
// field's width, as a conversion does.
func uvarint[T ~uint32 | ~uint64 | ~int | ~int64](c *coder, v *T) {
	if !c.dec {
		c.put(uint64(*v))
		return
	}
	x, n := uint64(0), 0
	if c.err == nil {
		x, n = binary.Uvarint(c.buf[c.pos:])
	}
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	c.pos += n
	*v = T(x)
}

func (c *coder) id(v *object.ID) {
	if !c.dec {
		c.put(uint64(v.Birth))
		c.put(v.Seq)
		return
	}
	v.Birth = object.SiteID(c.get())
	v.Seq = c.get()
}

func (c *coder) qid(v *QueryID) {
	if !c.dec {
		c.put(uint64(v.Origin))
		c.put(v.Seq)
		return
	}
	v.Origin = object.SiteID(c.get())
	v.Seq = c.get()
}

// len walks a length prefix. Decoding fails unless the bytes left could
// hold n elements — each takes at least one — so a forged prefix can never
// make decode allocate more than the frame it came in.
func (c *coder) len(n int) int {
	if !c.dec {
		c.put(uint64(n))
		return n
	}
	x := c.get()
	if x > uint64(len(c.buf)-c.pos) {
		c.fail("length prefix exceeds the bytes left")
		return 0
	}
	return int(x)
}

// slice walks a slice's length prefix and returns the slice whose elements
// the caller walks next: on decode, a new one of the length read.
func slice[T any](c *coder, s *[]T) []T {
	n := c.len(len(*s))
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// next reads a length-prefixed byte string, aliasing buf.
func (c *coder) next() []byte {
	n := c.len(0)
	b := c.buf[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return b
}

func (c *coder) str(s *string) {
	if !c.dec {
		c.put(uint64(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	if b := c.next(); c.borrow {
		*s = borrowString(b)
	} else {
		*s = string(b)
	}
}

func (c *coder) bytes(v *[]byte) {
	if !c.dec {
		c.put(uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	switch b := c.next(); {
	case len(b) == 0:
		// An empty field decodes as nil.
	case c.borrow:
		*v = b
	default:
		*v = append([]byte(nil), b...)
	}
}

// ids and ints encode in one loop, calling nothing per element: a Complete
// can carry thousands of ids.
func (c *coder) ids(s *[]object.ID) {
	if !c.dec {
		c.put(uint64(len(*s)))
		for _, id := range *s {
			c.put(uint64(id.Birth))
			c.put(id.Seq)
		}
		return
	}
	ids := slice(c, s)
	for i := range ids {
		c.id(&ids[i])
	}
}

func (c *coder) sites(s *[]object.SiteID) {
	ss := slice(c, s)
	for i := range ss {
		c.site(&ss[i])
	}
}

func (c *coder) ints(s *[]int) {
	if !c.dec {
		c.put(uint64(len(*s)))
		for _, x := range *s {
			c.put(uint64(x))
		}
		return
	}
	is := slice(c, s)
	for i := range is {
		c.int(&is[i])
	}
}

// droppedSpans walks the span list that messages carried while trace spans
// rode them: encoders write an empty list, and decoding drops what older
// senders put there.
func (c *coder) droppedSpans() {
	var spans []Span
	c.spans(&spans)
}

func (c *coder) spans(s *[]Span) {
	ss := slice(c, s)
	for i := range ss {
		sp := &ss[i]
		c.site(&sp.Site)
		c.u64(&sp.Seq)
		c.u32(&sp.Hop)
		c.u32(&sp.Filter)
		c.u32(&sp.In)
		c.u32(&sp.Out)
		c.u64(&sp.DurationUS)
	}
}

func (c *coder) fetches(s *[]FetchVal) {
	// Fetched values are retained by the originator for the lifetime of the
	// query, far past any read-buffer release: always copy, even under
	// DecodeBorrowed.
	borrow := c.borrow
	c.borrow = false
	fs := slice(c, s)
	for i := range fs {
		c.str(&fs[i].Var)
		c.id(&fs[i].From)
		c.value(&fs[i].Val)
	}
	c.borrow = borrow
}

// value walks a kind byte and then the one field that kind uses.
func (c *coder) value(v *object.Value) {
	k := uint8(v.Kind)
	c.u8(&k)
	if c.dec {
		v.Kind = object.Kind(k)
	}
	switch object.Kind(k) {
	case object.KindNil:
	case object.KindString, object.KindKeyword:
		c.str(&v.Str)
	case object.KindInt:
		uvarint(c, &v.Int)
	case object.KindFloat:
		bits := math.Float64bits(v.Float)
		c.u64(&bits)
		if c.dec {
			v.Float = math.Float64frombits(bits)
		}
	case object.KindPointer:
		c.id(&v.Ptr)
	case object.KindBytes:
		c.bytes(&v.Bytes)
	default:
		c.fail("unknown value kind")
	}
}
