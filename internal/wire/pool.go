package wire

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// borrowString views b as a string without copying. Callers must uphold the
// DecodeBorrowed lifetime contract: the string is invalid once the buffer
// it aliases is released or reused.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// encBufPool backs GetBuf/PutBuf: scratch buffers for transient encodes
// (acks, heartbeats, unreliable frames) whose bytes are fully consumed by a
// synchronous write.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// GetBuf returns a pooled length-zero scratch buffer for EncodeTo or
// AppendFrame. Pass the same pointer back to PutBuf once the bytes have
// been fully consumed; do not retain any slice of it afterwards.
func GetBuf() *[]byte {
	return encBufPool.Get().(*[]byte)
}

// PutBuf returns a buffer obtained from GetBuf (grown or not) to the pool.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	encBufPool.Put(b)
}

// ReadBuf is a ref-counted, pooled receive buffer. The transport reads each
// frame's payload into one, decodes the message with DecodeBorrowed, and
// hands its reference to the dispatch layer; whoever holds the last
// reference calls Release, which recycles the storage. Retain lets a
// receiver carry the buffer across an asynchronous hop (the server's
// mailbox) — every Retain must be matched by exactly one Release.
//
// In race-detector builds, Release poisons the payload bytes so any decode
// artifact used after release reads 0xDB garbage and fails loudly instead
// of silently reading recycled bytes, and over-release panics.
type ReadBuf struct {
	data []byte
	refs atomic.Int32
}

var readBufPool = sync.Pool{New: func() any { return &ReadBuf{} }}

// newReadBuf returns a pooled buffer with refcount 1 and len(data) == n.
func newReadBuf(n int) *ReadBuf {
	b := readBufPool.Get().(*ReadBuf)
	if cap(b.data) < n {
		b.data = make([]byte, n)
	} else {
		b.data = b.data[:n]
	}
	b.refs.Store(1)
	return b
}

// Bytes returns the buffer's payload storage.
func (b *ReadBuf) Bytes() []byte { return b.data }

// Retain adds a reference; the holder must eventually Release it.
func (b *ReadBuf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("wire: Retain on released ReadBuf")
	}
}

// Release drops one reference; the last release poisons (race builds) and
// recycles the storage. A nil buffer is a no-op.
func (b *ReadBuf) Release() {
	if b == nil {
		return
	}
	n := b.refs.Add(-1)
	if n < 0 {
		panic("wire: ReadBuf over-released")
	}
	if n == 0 {
		if poisonOnRelease {
			poison(b.data)
		}
		readBufPool.Put(b)
	}
}

// poison overwrites every byte so use-after-release reads garbage that
// cannot be mistaken for a live message.
func poison(data []byte) {
	for i := range data {
		data[i] = 0xDB
	}
}
