// Package wire implements the little-endian binary codec shared by the
// ygm transports and the metall datastore.
//
// All multi-byte integers are little-endian. Vectors are encoded as a
// uint32 element count followed by the raw elements. The codec is
// deliberately allocation-light: Writer appends into a caller-owned
// buffer and Reader walks a byte slice without copying until the caller
// asks for an owned value.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// hostLE reports whether the host stores multi-byte values
// little-endian. On such hosts the length-prefixed vector codecs can
// move whole element arrays with copy instead of an element-at-a-time
// shift loop: the wire format IS the host representation. The scalar
// loops below remain the portable fallback (and the reference the
// fast path is pinned to in tests).
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// byteView reinterprets a scalar slice as its raw bytes. Only valid
// for bulk copy on little-endian hosts; the view aliases v.
func byteView[T uint32 | float32](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// ErrShortBuffer is returned when a Reader runs out of bytes mid-value.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrOversize is returned when a length prefix exceeds MaxVectorLen.
var ErrOversize = errors.New("wire: vector length exceeds limit")

// MaxVectorLen bounds decoded vector lengths to protect against corrupt
// or malicious frames (2^27 elements = 512 MiB of float32).
const MaxVectorLen = 1 << 27

// Writer appends encoded values to an internal buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer whose buffer has the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice aliases the Writer's
// internal storage and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the buffer, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Wrap points the Writer at caller-provided storage, so encodes land
// in it. Writes beyond the slice's capacity fall back to the usual
// geometric growth, detaching from the provided storage — so callers
// take the result from Bytes, never from the slice they wrapped (see
// serve.Conn, which keeps the grown buffer for its next frame).
func (w *Writer) Wrap(buf []byte) { w.buf = buf }

// reserve extends the buffer by n bytes and returns the new span for
// the caller to fill, growing the backing array geometrically.
func (w *Writer) reserve(n int) []byte {
	l := len(w.buf)
	if cap(w.buf)-l < n {
		nb := make([]byte, l, 2*cap(w.buf)+n)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = w.buf[:l+n]
	return w.buf[l:]
}

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint16 appends a little-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}

// Uint32 appends a little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Uint64 appends a little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int64 appends a little-endian int64.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float32 appends an IEEE-754 float32.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// Float64 appends an IEEE-754 float64.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Bytes32 appends a uint32 length prefix followed by raw bytes.
func (w *Writer) Bytes32(p []byte) {
	w.Uint32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Float32s appends a length-prefixed []float32.
func (w *Writer) Float32s(v []float32) {
	w.Uint32(uint32(len(v)))
	p := w.reserve(4 * len(v))
	if hostLE {
		copy(p, byteView(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(x))
	}
}

// Uint8s appends a length-prefixed []uint8.
func (w *Writer) Uint8s(v []uint8) { w.Bytes32(v) }

// Uint32s appends a length-prefixed []uint32.
func (w *Writer) Uint32s(v []uint32) {
	w.Uint32(uint32(len(v)))
	p := w.reserve(4 * len(v))
	if hostLE {
		copy(p, byteView(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], x)
	}
}

// Reader decodes values sequentially from a byte slice.
// Decoding errors are sticky: once any Get fails, Err reports it and
// subsequent Gets return zero values. This lets call sites decode a
// whole struct and check the error once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Reset repoints the Reader at p and clears its position and error,
// so a message handler can reuse one Reader across payloads instead of
// allocating per message.
func (r *Reader) Reset(p []byte) { r.buf, r.off, r.err = p, 0, nil }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or bytes remain unconsumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// Uint8 decodes one byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint16 decodes a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return uint16(p[0]) | uint16(p[1])<<8
}

// Uint32 decodes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// Uint64 decodes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

// Int64 decodes a little-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float32 decodes an IEEE-754 float32.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// Float64 decodes an IEEE-754 float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool decodes a one-byte boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

func (r *Reader) length() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > MaxVectorLen {
		r.err = ErrOversize
		return 0
	}
	return int(n)
}

// Count decodes a uint32 element count for records of the given byte
// size and validates it against the bytes remaining, so decoders can
// size an allocation from it safely: a corrupt count that the buffer
// cannot possibly satisfy fails the Reader here (ErrShortBuffer, as the
// doomed element reads would have) instead of provoking a huge
// allocation first.
func (r *Reader) Count(size int) int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > MaxVectorLen {
		r.err = ErrOversize
		return 0
	}
	if int64(n)*int64(size) > int64(r.Remaining()) {
		r.fail()
		return 0
	}
	return int(n)
}

// Bytes32 decodes a length-prefixed byte slice. The returned slice is
// an owned copy.
func (r *Reader) Bytes32() []byte {
	n := r.length()
	p := r.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// BytesView decodes a length-prefixed byte slice without copying; the
// result aliases the Reader's buffer.
func (r *Reader) BytesView() []byte {
	n := r.length()
	return r.take(n)
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	p := r.take(n)
	return string(p)
}

// Float32s decodes a length-prefixed []float32 into a new slice.
func (r *Reader) Float32s() []float32 {
	n := r.length()
	if !r.fits(n, 4) {
		return nil
	}
	return r.float32sBody(make([]float32, n))
}

// fits reports whether n elements of the given byte size can still be
// read, failing the Reader otherwise. It guards slice allocations
// against corrupt length prefixes: without it a hostile count under
// MaxVectorLen could demand a half-gigabyte allocation that the
// subsequent take would reject anyway.
func (r *Reader) fits(n, size int) bool {
	if r.err != nil {
		return false
	}
	if int64(n)*int64(size) > int64(r.Remaining()) {
		r.fail()
		return false
	}
	return true
}

// Float32sInto decodes a length-prefixed []float32 into dst's backing
// array, allocating only when dst's capacity is insufficient. It
// returns the decoded slice (which may be dst resliced) or nil on
// error; dst's previous contents are overwritten.
func (r *Reader) Float32sInto(dst []float32) []float32 {
	n := r.length()
	if !r.fits(n, 4) {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	return r.float32sBody(dst[:n])
}

func (r *Reader) float32sBody(dst []float32) []float32 {
	p := r.take(4 * len(dst))
	if p == nil {
		return nil
	}
	if hostLE {
		copy(byteView(dst), p)
		return dst
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return dst
}

// Uint8s decodes a length-prefixed []uint8 into a new slice.
func (r *Reader) Uint8s() []uint8 { return r.Bytes32() }

// Uint8sInto decodes a length-prefixed []uint8 into dst's backing
// array, allocating only when dst's capacity is insufficient.
func (r *Reader) Uint8sInto(dst []uint8) []uint8 {
	n := r.length()
	p := r.take(n)
	if p == nil {
		return nil
	}
	if cap(dst) < n {
		dst = make([]uint8, n)
	}
	dst = dst[:n]
	copy(dst, p)
	return dst
}

// Uint32s decodes a length-prefixed []uint32 into a new slice.
func (r *Reader) Uint32s() []uint32 {
	n := r.length()
	if !r.fits(n, 4) {
		return nil
	}
	return r.uint32sBody(make([]uint32, n))
}

// Uint32sInto decodes a length-prefixed []uint32 into dst's backing
// array, allocating only when dst's capacity is insufficient.
func (r *Reader) Uint32sInto(dst []uint32) []uint32 {
	n := r.length()
	if !r.fits(n, 4) {
		return nil
	}
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	return r.uint32sBody(dst[:n])
}

func (r *Reader) uint32sBody(dst []uint32) []uint32 {
	p := r.take(4 * len(dst))
	if p == nil {
		return nil
	}
	if hostLE {
		copy(byteView(dst), p)
		return dst
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return dst
}
