// Network framing for IDT2 transport. The idsevald daemon accepts a
// trace as a sequence of frames over a byte stream (TCP); each frame
// carries an opaque segment of the IDT2 file plus enough envelope —
// type, ordinal, length, checksum — to resume an interrupted upload
// exactly where it stopped and to reject corruption at the wire before
// it reaches the spool.
//
// Wire layout (big-endian):
//
//	magic   [4]byte  "ISF2"
//	type    u8       frame type (FrameHello .. FrameComplete)
//	ordinal u32      sequence number within the stream
//	length  u32      payload byte count
//	payload [length]byte
//	crc     u32      CRC-32 (IEEE) of payload
//
// The reader is hardened against hostile peers: the length field is
// capped (MaxFramePayload) and never trusted for allocation — the
// buffer grows in bounded steps only as payload bytes actually arrive,
// so a frame claiming 64 MiB costs an attacker 64 MiB of real traffic,
// not one malloc. Every decode error is a *FrameDecodeError carrying
// the frame ordinal and the byte offset where the frame began, so a
// truncated or corrupted upload is diagnosable from the error string
// alone.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types. Client → server: Hello opens (or resumes) a stream,
// Data carries one IDT2 segment, Finish declares the upload complete.
// Server → client: Ack confirms the frame named by its ordinal, Reject
// refuses work with a retry hint, Error reports a protocol or
// evaluation failure, Result streams one incremental experiment
// verdict, Scorecard carries the final rendered scorecard, Complete
// closes the dialogue.
const (
	FrameHello     byte = 1
	FrameData      byte = 2
	FrameFinish    byte = 3
	FrameAck       byte = 4
	FrameReject    byte = 5
	FrameError     byte = 6
	FrameResult    byte = 7
	FrameScorecard byte = 8
	FrameComplete  byte = 9
)

const (
	frameMagic      = "ISF2"
	frameHeaderLen  = 4 + 1 + 4 + 4 // magic, type, ordinal, length
	frameTrailerLen = 4             // crc32

	// MaxFramePayload caps a single frame's payload. It matches the
	// decoder's per-block cap, so any block a writer can produce fits in
	// one frame.
	MaxFramePayload = maxBlockLen

	// frameReadStep bounds how much the payload buffer grows per read:
	// allocation tracks bytes received, never bytes claimed.
	frameReadStep = 64 << 10
)

// Frame is one decoded frame. Payload aliases the reader's internal
// buffer and is valid only until the next call to Next.
type Frame struct {
	Type    byte
	Ordinal uint32
	Payload []byte
}

// FrameDecodeError is any failure decoding a frame from the wire. It
// pins the frame's ordinal (the header's, when the header was readable;
// otherwise the last good frame's) and the byte offset in the
// connection stream where the failing frame began.
type FrameDecodeError struct {
	Ordinal uint32
	Offset  int64
	Cause   error
}

func (e *FrameDecodeError) Error() string {
	return fmt.Sprintf("trace: frame %d at byte %d: %v", e.Ordinal, e.Offset, e.Cause)
}

func (e *FrameDecodeError) Unwrap() error { return e.Cause }

// FrameReader decodes frames from a byte stream, reusing one payload
// buffer across frames. Not safe for concurrent use.
type FrameReader struct {
	r       io.Reader
	max     uint32
	off     int64
	lastOrd uint32
	buf     []byte
	hdr     [frameHeaderLen]byte
}

// NewFrameReader wraps r. maxPayload caps the accepted payload length;
// <= 0 or larger than MaxFramePayload defaults to MaxFramePayload.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	max := uint32(MaxFramePayload)
	if maxPayload > 0 && maxPayload < MaxFramePayload {
		max = uint32(maxPayload)
	}
	return &FrameReader{r: r, max: max}
}

// fail wraps cause with the current frame's position.
func (fr *FrameReader) fail(ord uint32, start int64, cause error) error {
	return &FrameDecodeError{Ordinal: ord, Offset: start, Cause: cause}
}

// Next decodes one frame. A clean end of stream between frames returns
// io.EOF; every other failure is a *FrameDecodeError.
func (fr *FrameReader) Next() (Frame, error) {
	start := fr.off
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fr.fail(fr.lastOrd, start, fmt.Errorf("truncated frame header: %w", err))
	}
	if string(fr.hdr[:4]) != frameMagic {
		return Frame{}, fr.fail(fr.lastOrd, start,
			fmt.Errorf("bad frame magic %x (want %q) — stream desynchronized", fr.hdr[:4], frameMagic))
	}
	typ := fr.hdr[4]
	ord := binary.BigEndian.Uint32(fr.hdr[5:9])
	plen := binary.BigEndian.Uint32(fr.hdr[9:13])
	if typ < FrameHello || typ > FrameComplete {
		return Frame{}, fr.fail(ord, start, fmt.Errorf("unknown frame type %d", typ))
	}
	if plen > fr.max {
		return Frame{}, fr.fail(ord, start,
			fmt.Errorf("frame payload %d bytes exceeds cap %d", plen, fr.max))
	}

	// Grow the buffer stepwise as bytes arrive: a hostile length field
	// can make us read, but never preallocate, plen bytes.
	need := int(plen)
	payload := fr.buf[:0]
	for len(payload) < need {
		n := need - len(payload)
		if n > frameReadStep {
			n = frameReadStep
		}
		at := len(payload)
		payload = append(payload, make([]byte, n)...)
		if _, err := io.ReadFull(fr.r, payload[at:]); err != nil {
			fr.buf = payload[:0]
			return Frame{}, fr.fail(ord, start,
				fmt.Errorf("truncated frame payload (%d of %d bytes): %w", at, need, err))
		}
	}
	fr.buf = payload

	var crcBuf [frameTrailerLen]byte
	if _, err := io.ReadFull(fr.r, crcBuf[:]); err != nil {
		return Frame{}, fr.fail(ord, start, fmt.Errorf("truncated frame checksum: %w", err))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(crcBuf[:]); got != want {
		return Frame{}, fr.fail(ord, start,
			fmt.Errorf("frame checksum mismatch: computed %08x, header says %08x", got, want))
	}

	fr.off = start + frameHeaderLen + int64(need) + frameTrailerLen
	fr.lastOrd = ord
	return Frame{Type: typ, Ordinal: ord, Payload: payload}, nil
}

// ErrFrameTooLarge is returned by FrameWriter for oversized payloads.
var ErrFrameTooLarge = errors.New("trace: frame payload exceeds MaxFramePayload")

// FrameWriter encodes frames, assembling each into one buffer so a
// frame reaches the underlying writer in a single Write call. Not safe
// for concurrent use; callers serialize (the daemon holds a per-
// connection write lock).
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write encodes and sends one frame.
func (fw *FrameWriter) Write(typ byte, ordinal uint32, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	total := frameHeaderLen + len(payload) + frameTrailerLen
	if cap(fw.buf) < total {
		fw.buf = make([]byte, total)
	}
	b := fw.buf[:total]
	copy(b, frameMagic)
	b[4] = typ
	binary.BigEndian.PutUint32(b[5:9], ordinal)
	binary.BigEndian.PutUint32(b[9:13], uint32(len(payload)))
	copy(b[frameHeaderLen:], payload)
	binary.BigEndian.PutUint32(b[frameHeaderLen+len(payload):], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing frame %d: %w", ordinal, err)
	}
	return nil
}
