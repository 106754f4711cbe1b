// Package serve is the online query-serving subsystem: a long-lived
// TCP server answering approximate-nearest-neighbor queries over a
// persisted index through internal/search, with production scheduler
// behaviors — bounded admission with typed overload rejections,
// per-request deadlines, a fixed set of workers each running one
// search at a time, graceful drain, and a
// /metrics-style observability surface. The package also ships the
// protocol client and a closed-/open-loop load generator
// (cmd/dnnd-serve and cmd/dnnd-loadgen are thin wrappers).
//
// Wire protocol: length-prefixed frames over TCP. Each frame is a
// little-endian uint32 length (counting the op byte and payload),
// one op byte (msg.SOp*), and the payload encoded by the
// internal/msg serve codecs. Every request frame receives exactly one
// reply frame with the same op; replies to pipelined requests on one
// connection may arrive out of order, matched by SQuery.ID/SResult.ID
// (the bundled Client serializes instead, one round trip at a time).
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds accepted frame lengths on both sides: large enough
// for any plausible query vector or stats dump, small enough that a
// corrupt length prefix cannot provoke a giant allocation.
const maxFrame = 1 << 24

const frameHeaderLen = 5 // uint32 length + op byte

// AppendFrame appends a framed message to buf and returns the
// extended slice (the caller owns buf and reuses it across frames).
func AppendFrame(buf []byte, op uint8, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = op
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ReadFrame reads one frame, returning the op byte and the payload.
// The payload is freshly allocated and owned by the caller: this is
// ReadFrameInto over a fresh header-sized buffer, so the payload gets
// one allocation of exactly its length.
func ReadFrame(r io.Reader) (uint8, []byte, error) {
	buf := make([]byte, frameHeaderLen)
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto is the one frame reader — every server connection,
// Client and PipeClient reads through it, so the maxFrame bound on the
// length prefix is enforced here and nowhere else. The returned payload
// aliases *buf (grown as needed, never shrunk) and is valid only until
// the next call with the same buffer. The header is staged through the
// same buffer so a steady-state read allocates nothing.
func ReadFrameInto(r io.Reader, buf *[]byte) (uint8, []byte, error) {
	b := *buf
	if cap(b) < frameHeaderLen {
		b = make([]byte, frameHeaderLen, 4096)
		*buf = b
	}
	hdr := b[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	op := hdr[4] // copied out before the payload overwrites b
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("serve: bad frame length %d", n)
	}
	need := int(n - 1)
	if cap(b) < need {
		b = make([]byte, need)
		*buf = b
	}
	payload := b[:need]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}
