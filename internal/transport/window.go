package transport

import (
	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// maxIdleSlabBytes is the largest slab an emptied sendWindow keeps for its
// next burst; one that a run of large frames grew past it is released.
const maxIdleSlabBytes = 256 << 10

// minCompactFrames and minCompactBytes are the smallest dead prefixes worth
// a copy-down; below them the window just waits to empty.
const (
	minCompactFrames = 64
	minCompactBytes  = 4 << 10
)

// pendingFrame is one reliable frame awaiting acknowledgement. It is a value
// without pointers: its framed bytes, header included, sit on the window's
// slab, and its times are nanoseconds on the transport's monotonic clock, so
// the collector has nothing to trace per frame.
type pendingFrame struct {
	seq uint64
	off uint64 // stream offset of the frame's first byte (see sendWindow.base)
	n   int32  // framed length
	// attempts counts transmissions handed to the link (fault-dropped ones
	// included); it stays 0 while the frame waits behind a down link.
	attempts int32
	// done marks a frame that needs no more sending but is still above an
	// unacknowledged one: acknowledged selectively over a gap, or abandoned.
	// Its slot and bytes are reclaimed when the prefix passes it.
	done   bool
	nextAt int64 // earliest retransmission time
	// firstSent anchors the ack round-trip measurement; it includes any
	// time the frame spent queued behind a down link.
	firstSent int64
}

// sendWindow holds one peer's unacknowledged frames, ascending by sequence
// number, as a queue of values over one append-only byte slab. The
// cumulative ack retires a prefix of both, so nothing is allocated or freed
// per frame: the storage is reused from the start whenever the window
// empties and copied down when a long-lived window's dead prefix outgrows
// its live part. It has no clock and does no I/O. Callers hold the peer's
// mutex.
type sendWindow struct {
	frames  []pendingFrame // frames[head:] are in the window
	head    int
	unacked int    // frames in the window that are not done
	slab    []byte // the bytes of frames[head:], in order, after a dead prefix
	base    uint64 // stream offset of slab[0]
}

// push encodes m as the next frame and returns its entry, valid until the
// next push or trim.
func (w *sendWindow) push(from object.SiteID, epoch, seq uint64, m wire.Msg, now, nextAt int64) *pendingFrame {
	at := len(w.slab)
	w.slab = wire.AppendFrameMsg(w.slab, from, epoch, seq, m)
	if w.head > 0 && len(w.frames) == cap(w.frames) {
		// The queue is about to grow while retired slots sit in front of
		// head: compact in place instead, so its storage stays within what
		// the live window needs, whatever trim's thresholds let through.
		w.frames = w.frames[:copy(w.frames, w.frames[w.head:])]
		w.head = 0
	}
	w.frames = append(w.frames, pendingFrame{
		seq: seq, off: w.base + uint64(at), n: int32(len(w.slab) - at), nextAt: nextAt, firstSent: now,
	})
	w.unacked++
	return &w.frames[len(w.frames)-1]
}

// live returns the frames in the window, done ones included.
func (w *sendWindow) live() []pendingFrame { return w.frames[w.head:] }

// data returns a frame's bytes. They are borrowed: the next push or trim may
// move or overwrite them.
func (w *sendWindow) data(pf *pendingFrame) []byte {
	at := int(pf.off - w.base)
	return w.slab[at : at+int(pf.n) : at+int(pf.n)]
}

// retire marks a frame acknowledged or abandoned, for trim to reclaim, and
// reports whether it was still waiting.
func (w *sendWindow) retire(pf *pendingFrame) bool {
	if pf.done {
		return false
	}
	pf.done = true
	w.unacked--
	return true
}

// trim drops the done prefix of the window and reclaims its storage.
func (w *sendWindow) trim() {
	for w.head < len(w.frames) && w.frames[w.head].done {
		w.head++
	}
	if w.head == len(w.frames) {
		w.base += uint64(len(w.slab))
		w.frames, w.head, w.slab = w.frames[:0], 0, w.slab[:0]
		if cap(w.slab) > maxIdleSlabBytes {
			w.slab = nil
		}
		return
	}
	if w.head >= minCompactFrames && w.head > len(w.frames)/2 {
		w.frames = w.frames[:copy(w.frames, w.frames[w.head:])]
		w.head = 0
	}
	if dead := int(w.frames[w.head].off - w.base); dead >= minCompactBytes && dead > len(w.slab)/2 {
		w.slab = w.slab[:copy(w.slab, w.slab[dead:])]
		w.base += uint64(dead)
	}
}
