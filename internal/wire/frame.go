package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hyperfile/internal/object"
)

// ErrFrame is the base error for malformed transport frames.
var ErrFrame = errors.New("wire: frame error")

// FrameMagic opens every transport frame. The trailing byte is the frame
// format version; v2 added the epoch and sequence fields that carry the
// reliable-delivery state.
var FrameMagic = [4]byte{'H', 'F', 0, 2}

// frameHeaderLen is magic(4) + payload length(4) + sender(4) + epoch(8) +
// seq(8).
const frameHeaderLen = 28

// Frame is one length-delimited transport frame: an encoded wire message
// plus the delivery metadata the reliability layer needs. Seq numbers are
// per sender-receiver link and monotonic from 1; Seq 0 marks an unreliable
// frame (acks, heartbeats) that is neither acked nor retransmitted. Epoch
// identifies the sender's process incarnation so a receiver can reset its
// dedup window when a peer restarts and its sequence numbers start over.
type Frame struct {
	From    object.SiteID
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, FrameMagic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	return append(dst, f.Payload...)
}

// AppendFrameMsg appends a frame carrying m's encoding to dst, encoding the
// payload directly into the frame buffer and backfilling the 4-byte length
// field — the zero-intermediate form of AppendFrame(dst, Frame{Payload:
// Encode(m)}), saving the payload temporary on every send.
func AppendFrameMsg(dst []byte, from object.SiteID, epoch, seq uint64, m Msg) []byte {
	dst = append(dst, FrameMagic[:]...)
	lenAt := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(from))
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	payloadAt := len(dst)
	dst = EncodeTo(dst, m)
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-payloadAt))
	return dst
}

// readFrameHeader reads and validates one frame header, returning the frame
// (Payload still unset) and the payload length that follows on r.
func readFrameHeader(r io.Reader, maxPayload uint32) (Frame, uint32, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if [4]byte(hdr[:4]) != FrameMagic {
		return Frame{}, 0, fmt.Errorf("%w: bad magic %x", ErrFrame, hdr[:4])
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, maxPayload)
	}
	return Frame{
		From:  object.SiteID(binary.BigEndian.Uint32(hdr[8:12])),
		Epoch: binary.BigEndian.Uint64(hdr[12:20]),
		Seq:   binary.BigEndian.Uint64(hdr[20:28]),
	}, n, nil
}

// ReadFrameBuf reads one frame like ReadFrame, but places the payload in a
// pooled, ref-counted buffer instead of a fresh allocation. The returned
// frame's Payload aliases the buffer; the caller (and anything it decodes
// with DecodeBorrowed) must stop touching both before the last Release.
// On error no buffer is retained.
func ReadFrameBuf(r io.Reader, maxPayload uint32) (Frame, *ReadBuf, error) {
	f, n, err := readFrameHeader(r, maxPayload)
	if err != nil {
		return Frame{}, nil, err
	}
	buf := newReadBuf(int(n))
	if n > 0 {
		if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
			buf.Release()
			return Frame{}, nil, err
		}
		f.Payload = buf.Bytes()
	}
	return f, buf, nil
}

// ReadFrame reads one frame from r into a freshly allocated payload.
// maxPayload bounds the payload length a corrupt or malicious header can
// demand. Errors wrapping ErrFrame mean the stream is corrupt and the
// connection should be dropped; io errors pass through unchanged.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	f, n, err := readFrameHeader(r, maxPayload)
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}
