package wire

// Scalar is the set of feature-vector element types supported across the
// library: float32 for real-valued embeddings (DEEP, GloVe, ...), uint8
// for quantized vectors (BigANN), and uint32 for sparse set members
// (Jaccard datasets such as Kosarak).
type Scalar interface {
	float32 | uint8 | uint32
}

// ScalarSize returns the encoded size in bytes of one element of T.
func ScalarSize[T Scalar]() int {
	var z T
	switch any(z).(type) {
	case uint8:
		return 1
	default:
		return 4
	}
}

// ElemName returns the name stores, manifests and hello replies record
// for element type T ("float32", "uint8" or "uint32").
func ElemName[T Scalar]() string {
	var z T
	switch any(z).(type) {
	case float32:
		return "float32"
	case uint8:
		return "uint8"
	default:
		return "uint32"
	}
}

// VectorBytes returns the encoded size of a length-prefixed vector of n
// elements of type T, matching PutVector's output exactly.
func VectorBytes[T Scalar](n int) int { return 4 + n*ScalarSize[T]() }

// PutVector appends a length-prefixed vector of T.
func PutVector[T Scalar](w *Writer, v []T) {
	switch s := any(v).(type) {
	case []float32:
		w.Float32s(s)
	case []uint8:
		w.Uint8s(s)
	case []uint32:
		w.Uint32s(s)
	}
}

// GetVector decodes a length-prefixed vector of T into a new slice.
func GetVector[T Scalar](r *Reader) []T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(r.Float32s()).([]T)
	case uint8:
		return any(r.Uint8s()).([]T)
	default:
		return any(r.Uint32s()).([]T)
	}
}

// GetVectorInto decodes a length-prefixed vector of T into dst's
// backing array, allocating only when dst's capacity is insufficient.
// Returns the decoded slice (possibly dst resliced), or nil on error.
func GetVectorInto[T Scalar](r *Reader, dst []T) []T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(r.Float32sInto(any(dst).([]float32))).([]T)
	case uint8:
		return any(r.Uint8sInto(any(dst).([]uint8))).([]T)
	default:
		return any(r.Uint32sInto(any(dst).([]uint32))).([]T)
	}
}

// GetVectorBorrow decodes a length-prefixed vector of T without
// allocating in steady state. For uint8 the element encoding is the
// identity, so the result is a zero-copy view of the Reader's buffer;
// wider element types are decoded into scratch, which is grown only
// when too small. It returns the vector and the (possibly grown)
// scratch to carry to the next call. The vector may alias the Reader's
// buffer or the scratch: it is only valid until the underlying frame is
// released or the scratch is reused, so callers must finish with it
// before returning from the message handler.
func GetVectorBorrow[T Scalar](r *Reader, scratch []T) (vec, newScratch []T) {
	var z T
	if _, ok := any(z).(uint8); ok {
		return any(r.BytesView()).([]T), scratch
	}
	v := GetVectorInto(r, scratch)
	if v == nil {
		return nil, scratch
	}
	return v, v
}
