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

// maxSliceLen bounds decoded slice lengths to keep a corrupt or malicious
// length prefix from forcing a huge allocation.
const maxSliceLen = 1 << 24

// Encode serializes a message to the compact binary wire form: a kind byte
// followed by the payload fields in order, integers as uvarints and
// strings/byte-slices length-prefixed.
func Encode(m Msg) []byte {
	return EncodeTo(make([]byte, 0, 64), m)
}

// EncodeTo appends m's wire form to dst and returns the extended slice. It
// is the allocation-free form of Encode: callers on the hot path encode
// into a pooled buffer (GetBuf/PutBuf) or directly into a frame under
// construction (AppendFrameMsg) instead of allocating per message.
func EncodeTo(dst []byte, m Msg) []byte {
	e := &encoder{buf: dst}
	k := m.Kind()
	// Deref frames always encode in the batched layout. KDeref stays on the
	// wire only as a legacy single-id layout that Decode still accepts.
	if k == KDeref {
		k = KDerefBatch
	}
	e.u8(uint8(k))
	switch m := m.(type) {
	case *Submit:
		e.qid(m.QID)
		e.u64(uint64(m.Client))
		e.str(m.ClientAddr)
		e.str(m.Body)
		e.ids(m.Initial)
		e.qid(m.InitialFromResultOf)
		e.u64(m.BudgetUS)
		e.u64(m.ClientID)
	case *Deref:
		e.qid(m.QID)
		e.u64(uint64(m.Origin))
		e.str(m.Body)
		e.ids(m.ObjIDs)
		e.u64(uint64(m.Start))
		e.u64(uint64(len(m.Iters)))
		for _, it := range m.Iters {
			e.u64(uint64(it))
		}
		e.bytes(m.Token)
		e.u64(uint64(m.Hop))
		e.bytes(m.BodyHash)
		e.u64(m.BudgetUS)
		if len(m.Spans) > 0 {
			e.spans(m.Spans)
		}
	case *Result:
		e.qid(m.QID)
		e.ids(m.IDs)
		e.fetches(m.Fetches)
		e.u64(uint64(m.Count))
		e.bool(m.Retained)
		e.bytes(m.Token)
		e.sites(m.Unreachable)
		e.spans(m.Spans)
	case *Control:
		e.qid(m.QID)
		e.bytes(m.Token)
		e.spans(m.Spans)
	case *Finish:
		e.qid(m.QID)
		e.bool(m.Retain)
	case *Complete:
		e.qid(m.QID)
		e.ids(m.IDs)
		e.fetches(m.Fetches)
		e.u64(uint64(m.Count))
		e.bool(m.Distributed)
		e.bool(m.Partial)
		e.str(m.Err)
		e.sites(m.Unreachable)
		e.spans(m.Spans)
		e.str(m.Reason)
	case *Seed:
		e.qid(m.QID)
		e.u64(uint64(m.Origin))
		e.str(m.Body)
		e.qid(m.FromQID)
		e.bytes(m.Token)
		e.u64(uint64(m.Hop))
		e.u64(m.BudgetUS)
	case *Reject:
		e.qid(m.QID)
		e.str(m.Reason)
	case *Cancel:
		e.qid(m.QID)
		e.str(m.Reason)
	case *Migrate:
		e.u64(m.Seq)
		e.id(m.ID)
		e.u64(uint64(m.To))
		e.u64(uint64(m.Client))
		e.str(m.ClientAddr)
		e.u8(m.Hops)
	case *MigrateData:
		e.u64(m.Seq)
		e.bytes(m.Obj)
		e.u64(uint64(m.Client))
		e.str(m.ClientAddr)
	case *MigrateDone:
		e.id(m.ID)
		e.u64(uint64(m.NewSite))
	case *Migrated:
		e.u64(m.Seq)
		e.id(m.ID)
		e.bool(m.OK)
		e.str(m.Err)
	case *StatsReq:
		e.u64(m.Seq)
		e.str(m.ClientAddr)
	case *Ack:
		e.u64(m.Seq)
		e.u64(m.Cum)
	case *Heartbeat:
		e.u64(m.Seq)
	case *StatsResp:
		e.u64(m.Seq)
		e.u64(uint64(m.Site))
		e.u64(m.Contexts)
		e.u64(m.Objects)
		e.u64(uint64(len(m.Counters)))
		for _, c := range m.Counters {
			e.str(c.Name)
			e.u64(c.Value)
		}
	}
	return e.buf
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
// retention points (context creation, plan-cache install).
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
	d := &decoder{buf: data}
	kind := Kind(d.u8())
	d.borrow = borrow && borrowedWholesale(kind)
	var m Msg
	switch kind {
	case KSubmit:
		s := &Submit{}
		s.QID = d.qid()
		s.Client = object.SiteID(d.u64())
		s.ClientAddr = d.str()
		s.Body = d.str()
		s.Initial = d.ids()
		s.InitialFromResultOf = d.qid()
		// Trailing, optional: frames predating time budgets end here.
		if d.err == nil && d.pos < len(d.buf) {
			s.BudgetUS = d.u64()
		}
		// Trailing, optional: frames predating client ids end here.
		if d.err == nil && d.pos < len(d.buf) {
			s.ClientID = d.u64()
		}
		m = s
	case KDeref:
		// Legacy layout: exactly one object id, not length-prefixed.
		r := &Deref{}
		r.QID = d.qid()
		r.Origin = object.SiteID(d.u64())
		r.Body = d.str()
		r.ObjIDs = []object.ID{d.id()}
		r.Start = int(d.u64())
		n := d.len()
		if d.err == nil && n > 0 {
			r.Iters = make([]int, n)
			for i := range r.Iters {
				r.Iters[i] = int(d.u64())
			}
		}
		r.Token = d.bytes()
		r.Hop = uint32(d.u64())
		m = r
	case KDerefBatch:
		r := &Deref{}
		r.QID = d.qid()
		r.Origin = object.SiteID(d.u64())
		r.Body = d.str()
		r.ObjIDs = d.ids()
		r.Start = int(d.u64())
		n := d.len()
		if d.err == nil && n > 0 {
			r.Iters = make([]int, n)
			for i := range r.Iters {
				r.Iters[i] = int(d.u64())
			}
		}
		r.Token = d.bytes()
		r.Hop = uint32(d.u64())
		// Trailing, optional: frames predating the plan cache end here,
		// frames predating time budgets end after BodyHash, and frames
		// without spans end after BudgetUS.
		if d.err == nil && d.pos < len(d.buf) {
			r.BodyHash = d.bytes()
		}
		if d.err == nil && d.pos < len(d.buf) {
			r.BudgetUS = d.u64()
		}
		if d.err == nil && d.pos < len(d.buf) {
			r.Spans = d.spans()
		}
		m = r
	case KResult:
		r := &Result{}
		r.QID = d.qid()
		r.IDs = d.ids()
		r.Fetches = d.fetches()
		r.Count = int(d.u64())
		r.Retained = d.bool()
		r.Token = d.bytes()
		r.Unreachable = d.sites()
		r.Spans = d.spans()
		m = r
	case KControl:
		c := &Control{}
		c.QID = d.qid()
		c.Token = d.bytes()
		c.Spans = d.spans()
		m = c
	case KFinish:
		f := &Finish{}
		f.QID = d.qid()
		f.Retain = d.bool()
		m = f
	case KComplete:
		c := &Complete{}
		c.QID = d.qid()
		c.IDs = d.ids()
		c.Fetches = d.fetches()
		c.Count = int(d.u64())
		c.Distributed = d.bool()
		c.Partial = d.bool()
		c.Err = d.str()
		c.Unreachable = d.sites()
		c.Spans = d.spans()
		// Trailing, optional: frames predating partial-answer reasons end
		// here.
		if d.err == nil && d.pos < len(d.buf) {
			c.Reason = d.str()
		}
		m = c
	case KSeed:
		s := &Seed{}
		s.QID = d.qid()
		s.Origin = object.SiteID(d.u64())
		s.Body = d.str()
		s.FromQID = d.qid()
		s.Token = d.bytes()
		s.Hop = uint32(d.u64())
		// Trailing, optional: frames predating time budgets end here.
		if d.err == nil && d.pos < len(d.buf) {
			s.BudgetUS = d.u64()
		}
		m = s
	case KReject:
		m = &Reject{QID: d.qid(), Reason: d.str()}
	case KCancel:
		m = &Cancel{QID: d.qid(), Reason: d.str()}
	case KMigrate:
		mg := &Migrate{}
		mg.Seq = d.u64()
		mg.ID = d.id()
		mg.To = object.SiteID(d.u64())
		mg.Client = object.SiteID(d.u64())
		mg.ClientAddr = d.str()
		mg.Hops = d.u8()
		m = mg
	case KMigrateData:
		md := &MigrateData{}
		md.Seq = d.u64()
		md.Obj = d.bytes()
		md.Client = object.SiteID(d.u64())
		md.ClientAddr = d.str()
		m = md
	case KMigrateDone:
		m = &MigrateDone{ID: d.id(), NewSite: object.SiteID(d.u64())}
	case KMigrated:
		mg := &Migrated{}
		mg.Seq = d.u64()
		mg.ID = d.id()
		mg.OK = d.bool()
		mg.Err = d.str()
		m = mg
	case KStatsReq:
		m = &StatsReq{Seq: d.u64(), ClientAddr: d.str()}
	case KAck:
		a := &Ack{Seq: d.u64()}
		// Trailing, optional: frames predating cumulative acks end here.
		if d.err == nil && d.pos < len(d.buf) {
			a.Cum = d.u64()
		}
		m = a
	case KHeartbeat:
		m = &Heartbeat{Seq: d.u64()}
	case KStatsResp:
		r := &StatsResp{}
		r.Seq = d.u64()
		r.Site = object.SiteID(d.u64())
		r.Contexts = d.u64()
		r.Objects = d.u64()
		n := d.len()
		if d.err == nil && n > 0 {
			r.Counters = make([]Counter, n)
			for i := range r.Counters {
				r.Counters[i].Name = d.str()
				r.Counters[i].Value = d.u64()
			}
		}
		m = r
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrDecode, kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.pos {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.buf)-d.pos)
	}
	return m, nil
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) id(id object.ID) {
	e.u64(uint64(id.Birth))
	e.u64(id.Seq)
}
func (e *encoder) qid(q QueryID) {
	e.u64(uint64(q.Origin))
	e.u64(q.Seq)
}
func (e *encoder) ids(ids []object.ID) {
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		e.id(id)
	}
}
func (e *encoder) sites(ss []object.SiteID) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.u64(uint64(s))
	}
}
func (e *encoder) value(v object.Value) {
	e.u8(uint8(v.Kind))
	switch v.Kind {
	case object.KindString, object.KindKeyword:
		e.str(v.Str)
	case object.KindInt:
		e.u64(uint64(v.Int))
	case object.KindFloat:
		e.u64(math.Float64bits(v.Float))
	case object.KindPointer:
		e.id(v.Ptr)
	case object.KindBytes:
		e.bytes(v.Bytes)
	}
}
func (e *encoder) spans(ss []Span) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.u64(uint64(s.Site))
		e.u64(s.Seq)
		e.u64(uint64(s.Hop))
		e.u64(uint64(s.Filter))
		e.u64(uint64(s.In))
		e.u64(uint64(s.Out))
		e.u64(s.DurationUS)
	}
}
func (e *encoder) fetches(fs []FetchVal) {
	e.u64(uint64(len(fs)))
	for _, f := range fs {
		e.str(f.Var)
		e.id(f.From)
		e.value(f.Val)
	}
}

type decoder struct {
	buf []byte
	pos int
	err error
	// borrow makes str and bytes alias buf instead of copying (see
	// DecodeBorrowed); fetches always copies regardless.
	borrow bool
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", ErrDecode, msg, d.pos)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

// len decodes a slice length and bounds-checks it.
func (d *decoder) len() int {
	n := d.u64()
	if d.err == nil && n > maxSliceLen {
		d.fail("length prefix too large")
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) str() string {
	n := d.len()
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.buf) {
		d.fail("truncated string")
		return ""
	}
	var s string
	if d.borrow {
		s = borrowString(d.buf[d.pos : d.pos+n])
	} else {
		s = string(d.buf[d.pos : d.pos+n])
	}
	d.pos += n
	return s
}

func (d *decoder) bytes() []byte {
	n := d.len()
	if d.err != nil || n == 0 {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.fail("truncated bytes")
		return nil
	}
	var b []byte
	if d.borrow {
		// Full-slice expression caps the alias so an append can never
		// clobber the bytes of the next field.
		b = d.buf[d.pos : d.pos+n : d.pos+n]
	} else {
		b = make([]byte, n)
		copy(b, d.buf[d.pos:d.pos+n])
	}
	d.pos += n
	return b
}

func (d *decoder) id() object.ID {
	return object.ID{Birth: object.SiteID(d.u64()), Seq: d.u64()}
}

func (d *decoder) qid() QueryID {
	return QueryID{Origin: object.SiteID(d.u64()), Seq: d.u64()}
}

func (d *decoder) ids() []object.ID {
	n := d.len()
	if d.err != nil || n == 0 {
		return nil
	}
	ids := make([]object.ID, n)
	for i := range ids {
		ids[i] = d.id()
	}
	return ids
}

func (d *decoder) sites() []object.SiteID {
	n := d.len()
	if d.err != nil || n == 0 {
		return nil
	}
	ss := make([]object.SiteID, n)
	for i := range ss {
		ss[i] = object.SiteID(d.u64())
	}
	return ss
}

func (d *decoder) value() object.Value {
	k := object.Kind(d.u8())
	switch k {
	case object.KindNil:
		return object.Value{}
	case object.KindString:
		return object.String(d.str())
	case object.KindKeyword:
		return object.Keyword(d.str())
	case object.KindInt:
		return object.Int(int64(d.u64()))
	case object.KindFloat:
		return object.Float(math.Float64frombits(d.u64()))
	case object.KindPointer:
		return object.Pointer(d.id())
	case object.KindBytes:
		return object.Bytes(d.bytes())
	default:
		d.fail("unknown value kind")
		return object.Value{}
	}
}

func (d *decoder) spans() []Span {
	n := d.len()
	if d.err != nil || n == 0 {
		return nil
	}
	ss := make([]Span, n)
	for i := range ss {
		ss[i].Site = object.SiteID(d.u64())
		ss[i].Seq = d.u64()
		ss[i].Hop = uint32(d.u64())
		ss[i].Filter = uint32(d.u64())
		ss[i].In = uint32(d.u64())
		ss[i].Out = uint32(d.u64())
		ss[i].DurationUS = d.u64()
	}
	return ss
}

func (d *decoder) fetches() []FetchVal {
	n := d.len()
	if d.err != nil || n == 0 {
		return nil
	}
	// Fetched values are retained by the originator for the lifetime of the
	// query, far past any read-buffer release: always copy, even under
	// DecodeBorrowed.
	wasBorrow := d.borrow
	d.borrow = false
	defer func() { d.borrow = wasBorrow }()
	fs := make([]FetchVal, n)
	for i := range fs {
		fs[i].Var = d.str()
		fs[i].From = d.id()
		fs[i].Val = d.value()
	}
	return fs
}
