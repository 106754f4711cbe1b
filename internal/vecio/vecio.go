// Package vecio reads and writes the vector file formats of the ANN
// benchmark ecosystem (TEXMEX / Big ANN Benchmarks): fvecs (float32),
// bvecs (uint8), and ivecs (int32, also used for uint32 ground-truth
// IDs and sparse sets). Each record is a little-endian int32 dimension
// followed by that many elements; dimensions may vary per record. The
// three formats differ only in element type, so one generic codec,
// instantiated at float32, uint8 or uint32, reads and writes all three.
package vecio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"dnnd/internal/wire"
)

// ErrBadFormat reports a malformed vector file.
var ErrBadFormat = errors.New("vecio: bad format")

// maxDim bounds record dimensions to catch corrupt headers.
const maxDim = 1 << 24

// Read decodes all records of element type T from r (float32 for
// fvecs, uint8 for bvecs, uint32 for ivecs: ivecs files store int32,
// and ground-truth IDs and set items are non-negative).
func Read[T wire.Scalar](r io.Reader) ([][]T, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var out [][]T
	for {
		dim, err := readDim(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		vec, err := readBody[T](br, dim)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated %s record %d: %v", ErrBadFormat, wire.ElemName[T](), len(out), err)
		}
		out = append(out, vec)
	}
}

// chunkElems bounds how far a record's allocation runs ahead of the
// bytes read into it.
const chunkElems = 1 << 14

// readBody reads dim elements one chunk at a time, so a header that
// claims more elements than the input holds fails having allocated
// about as much as the input held, not what the header claimed.
func readBody[T wire.Scalar](br *bufio.Reader, dim int) ([]T, error) {
	vec := make([]T, 0, min(dim, chunkElems))
	for len(vec) < dim {
		n := min(dim-len(vec), chunkElems)
		vec = slices.Grow(vec, n)
		if err := binary.Read(br, binary.LittleEndian, vec[len(vec):len(vec)+n]); err != nil {
			return nil, err
		}
		vec = vec[:len(vec)+n]
	}
	return vec, nil
}

// Write encodes records of element type T to w.
func Write[T wire.Scalar](w io.Writer, data [][]T) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [4]byte
	for _, vec := range data {
		binary.LittleEndian.PutUint32(hdr[:], uint32(int32(len(vec))))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, vec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFile reads an entire vector file of element type T.
func ReadFile[T wire.Scalar](path string) ([][]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read[T](f)
}

// WriteFile writes an entire vector file of element type T.
func WriteFile[T wire.Scalar](path string, data [][]T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDim(br *bufio.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: truncated dimension header: %v", ErrBadFormat, err)
	}
	dim := int(int32(binary.LittleEndian.Uint32(hdr[:])))
	if dim < 0 || dim > maxDim {
		return 0, fmt.Errorf("%w: dimension %d out of range", ErrBadFormat, dim)
	}
	return dim, nil
}
