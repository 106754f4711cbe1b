// Package metric implements the distance functions used by DNND and the
// baselines: L2, squared L2, cosine distance, inner-product distance,
// Jaccard distance over sorted uint32 sets, and Hamming distance.
//
// A metric here follows the paper's convention: a symmetric function
// theta(a, b) >= 0 where smaller means closer. Cosine and inner-product
// "distances" are the usual ANN-benchmark similarity complements; they
// are symmetric but not true metrics, which NN-Descent does not require.
//
// The float and integer kernels are written as 4-way-unrolled loops with
// independent accumulators so the compiler can keep four chains in
// flight, and with the `b = b[:len(a)]` reslice shape that lets it prove
// the inner accesses in-bounds. Partial sums always combine as
// (s0+s1)+(s2+s3); any function documented as bit-identical to another
// relies on both using exactly this accumulator structure.
//
// Every float32 product is written as an explicit float32(x*y)
// conversion. The Go spec lets a compiler fuse x*y+z into one
// multiply-add unless the product is explicitly rounded, and arm64 does
// fuse; the conversion pins one rounding per product on every
// architecture, so the same inputs give the same bits everywhere.
package metric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"dnnd/internal/wire"
)

// Func computes the distance between two feature vectors of element
// type T. Implementations must be symmetric: Func(a,b) == Func(b,a).
type Func[T wire.Scalar] func(a, b []T) float32

// Kind names a distance function, as used in dataset presets and CLI
// flags. The names mirror the "Similarity Metric" column of Table 1.
type Kind string

// Supported metric kinds.
const (
	L2           Kind = "l2"
	SquaredL2    Kind = "sql2"
	Cosine       Kind = "cosine"
	InnerProduct Kind = "ip"
	Jaccard      Kind = "jaccard"
	Hamming      Kind = "hamming"
)

// Kinds lists every supported metric kind.
func Kinds() []Kind {
	return []Kind{L2, SquaredL2, Cosine, InnerProduct, Jaccard, Hamming}
}

// ForFloat32 returns the named metric over []float32 vectors.
func ForFloat32(k Kind) (Func[float32], error) {
	switch k {
	case L2:
		return L2Float32, nil
	case SquaredL2:
		return SquaredL2Float32, nil
	case Cosine:
		return CosineFloat32, nil
	case InnerProduct:
		return InnerProductFloat32, nil
	default:
		return nil, fmt.Errorf("metric: kind %q not defined for float32", k)
	}
}

// ForUint8 returns the named metric over []uint8 vectors.
func ForUint8(k Kind) (Func[uint8], error) {
	switch k {
	case L2:
		return L2Uint8, nil
	case SquaredL2:
		return SquaredL2Uint8, nil
	case Hamming:
		return HammingUint8, nil
	default:
		return nil, fmt.Errorf("metric: kind %q not defined for uint8", k)
	}
}

// ForUint32 returns the named metric over sorted []uint32 sets.
func ForUint32(k Kind) (Func[uint32], error) {
	switch k {
	case Jaccard:
		return JaccardUint32, nil
	default:
		return nil, fmt.Errorf("metric: kind %q not defined for uint32 sets", k)
	}
}

// For returns the named metric for element type T, or an error when the
// combination is unsupported (e.g. Jaccard over float32).
func For[T wire.Scalar](k Kind) (Func[T], error) {
	var z T
	switch any(z).(type) {
	case float32:
		f, err := ForFloat32(k)
		return any(f).(Func[T]), err
	case uint8:
		f, err := ForUint8(k)
		return any(f).(Func[T]), err
	default:
		f, err := ForUint32(k)
		return any(f).(Func[T]), err
	}
}

// SquaredL2Float32 returns the squared Euclidean distance. It induces
// the same neighbor ordering as L2 at lower cost and is what the
// construction path uses internally for L2 datasets.
func SquaredL2Float32(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// L2Float32 returns the Euclidean distance.
func L2Float32(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2Float32(a, b))))
}

// DotFloat32 returns the inner product <a, b>.
func DotFloat32(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredNormFloat32 returns |v|^2. Its accumulator structure matches
// the per-operand norm lanes of dotAndNorms/dotAndNorm, so a norm
// precomputed here is bit-identical to one computed inline by
// CosineFloat32 over the same vector.
//
// The cosine family unrolls two-wide rather than four: with three
// products per element, four lanes each would need twelve live
// accumulators and spill on amd64's sixteen vector registers, which
// benchmarked slower than the naive loop.
func SquaredNormFloat32(v []float32) float32 {
	var s0, s1 float32
	i := 0
	for ; i+2 <= len(v); i += 2 {
		s0 += float32(v[i] * v[i])
		s1 += float32(v[i+1] * v[i+1])
	}
	for ; i < len(v); i++ {
		s0 += float32(v[i] * v[i])
	}
	return s0 + s1
}

// dotAndNorms computes <a,b>, |a|^2 and |b|^2 in one pass. Each of the
// three results uses its own two accumulators (see SquaredNormFloat32
// on lane width), so each equals what the corresponding single-purpose
// kernel would produce, bit for bit.
func dotAndNorms(a, b []float32) (dot, na, nb float32) {
	b = b[:len(a)]
	var d0, d1, x0, x1, y0, y1 float32
	i := 0
	for ; i+2 <= len(a); i += 2 {
		a0, a1 := a[i], a[i+1]
		b0, b1 := b[i], b[i+1]
		d0 += float32(a0 * b0)
		d1 += float32(a1 * b1)
		x0 += float32(a0 * a0)
		x1 += float32(a1 * a1)
		y0 += float32(b0 * b0)
		y1 += float32(b1 * b1)
	}
	for ; i < len(a); i++ {
		ai, bi := a[i], b[i]
		d0 += float32(ai * bi)
		x0 += float32(ai * ai)
		y0 += float32(bi * bi)
	}
	return d0 + d1, x0 + x1, y0 + y1
}

// dotAndNorm is dotAndNorms without the |b|^2 lanes, for callers that
// already hold |b|^2 (the construction loop's cached-norm path).
func dotAndNorm(a, b []float32) (dot, na float32) {
	b = b[:len(a)]
	var d0, d1, x0, x1 float32
	i := 0
	for ; i+2 <= len(a); i += 2 {
		a0, a1 := a[i], a[i+1]
		d0 += float32(a0 * b[i])
		d1 += float32(a1 * b[i+1])
		x0 += float32(a0 * a0)
		x1 += float32(a1 * a1)
	}
	for ; i < len(a); i++ {
		ai := a[i]
		d0 += float32(ai * b[i])
		x0 += float32(ai * ai)
	}
	return d0 + d1, x0 + x1
}

func cosineFromParts(dot, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(na)*float64(nb)))
}

// CosineFloat32 returns 1 - cos(a, b), in [0, 2]. Zero vectors are at
// distance 1 from everything (cosine similarity treated as 0).
func CosineFloat32(a, b []float32) float32 {
	dot, na, nb := dotAndNorms(a, b)
	return cosineFromParts(dot, na, nb)
}

// CosinePreNormFloat32 is CosineFloat32 with |b|^2 precomputed (by
// SquaredNormFloat32). Because dot and |a|^2 use the same accumulator
// structure in dotAndNorm and dotAndNorms, and SquaredNormFloat32
// matches the |b|^2 lanes, the result is bit-identical to
// CosineFloat32(a, b) — which is what lets the construction loop cache
// norms without perturbing the descent.
func CosinePreNormFloat32(a, b []float32, nb float32) float32 {
	dot, na := dotAndNorm(a, b)
	return cosineFromParts(dot, na, nb)
}

// dot2 is the standalone two-lane dot product. Its accumulator
// structure matches the dot lanes of dotAndNorm/dotAndNorms (see
// SquaredNormFloat32 on why the cosine family is two-wide), so a dot
// computed here equals the one computed inline by CosinePreNormFloat32
// over the same pair, bit for bit.
func dot2(a, b []float32) float32 {
	b = b[:len(a)]
	var d0, d1 float32
	i := 0
	for ; i+2 <= len(a); i += 2 {
		d0 += float32(a[i] * b[i])
		d1 += float32(a[i+1] * b[i+1])
	}
	for ; i < len(a); i++ {
		d0 += float32(a[i] * b[i])
	}
	return d0 + d1
}

// CosineManyPreNormFloat32 is the batched form of CosinePreNormFloat32:
// one query against many candidates whose squared norms are already
// known. The query's |q|^2 is hoisted out of the loop — computed once by
// SquaredNormFloat32, whose lanes match dotAndNorm's |a|^2 lanes — and
// each dot comes from dot2, whose lanes match dotAndNorm's dot lanes,
// so out[i] is bit-identical to CosinePreNormFloat32(q, cands[i],
// nbs[i]) while skipping a third of the per-pair flops.
func CosineManyPreNormFloat32(q []float32, cands [][]float32, nbs []float32, out []float32) {
	nq := SquaredNormFloat32(q)
	for i, c := range cands {
		out[i] = cosineFromParts(dot2(q, c), nq, nbs[i])
	}
}

// InnerProductFloat32 returns -<a, b>, shifted ordering used for
// maximum-inner-product search. Not bounded below by zero in general;
// NN-Descent only compares distances so this is fine.
func InnerProductFloat32(a, b []float32) float32 {
	return -DotFloat32(a, b)
}

// sqUint8ChunkLen bounds how many elements accumulate in the int32
// lanes of SquaredL2Uint8 before folding into the int64 total. A
// per-element squared difference is at most 255² = 65025 < 2¹⁶, so one
// lane stays below 2³¹ for up to 2¹⁵ elements; 16384 elements across
// four lanes keeps a 2× safety margin.
const sqUint8ChunkLen = 16384

// SquaredL2Uint8 returns the squared Euclidean distance between
// quantized vectors (BigANN's element type). Integer arithmetic, so the
// result is exactly equal to the naive loop's. Four int32 lanes folded
// into an int64 every sqUint8ChunkLen elements benchmark ~1.4× faster
// than two int64 lanes on amd64 — 32-bit multiplies retire faster and
// the chunked fold keeps overflow impossible for any slice length.
func SquaredL2Uint8(a, b []uint8) float32 {
	b = b[:len(a)]
	var total int64
	for base := 0; base < len(a); base += sqUint8ChunkLen {
		end := base + sqUint8ChunkLen
		if end > len(a) {
			end = len(a)
		}
		var s0, s1, s2, s3 int32
		i := base
		for ; i+4 <= end; i += 4 {
			d0 := int32(a[i]) - int32(b[i])
			d1 := int32(a[i+1]) - int32(b[i+1])
			d2 := int32(a[i+2]) - int32(b[i+2])
			d3 := int32(a[i+3]) - int32(b[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < end; i++ {
			d := int32(a[i]) - int32(b[i])
			s0 += d * d
		}
		total += int64((s0 + s1) + (s2 + s3))
	}
	return float32(total)
}

// L2Uint8 returns the Euclidean distance between quantized vectors.
func L2Uint8(a, b []uint8) float32 {
	return float32(math.Sqrt(float64(SquaredL2Uint8(a, b))))
}

// HammingUint8 counts differing bytes (not bits: a byte that differs in
// any bit contributes 1, matching the ann-benchmarks convention for
// byte-packed data). The bulk runs 8 bytes per step: in x = a^b a
// differing byte is any nonzero byte, and the SWAR expression
//
//	t = (x & 0x7f..7f) + 0x7f..7f
//
// sets bit 7 of a byte of t iff that byte of x has any of bits 0..6
// set (the per-byte add cannot carry past bit 7 because the masked byte
// is at most 0x7f), so (t|x) & 0x80..80 has bit 7 set per nonzero byte
// and OnesCount64 counts them exactly.
func HammingUint8(a, b []uint8) float32 {
	b = b[:len(a)]
	const (
		lo7 = 0x7f7f7f7f7f7f7f7f
		hi1 = 0x8080808080808080
	)
	var n int
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		t := (x & lo7) + lo7
		n += bits.OnesCount64((t | x) & hi1)
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return float32(n)
}

// JaccardUint32 returns the Jaccard distance 1 - |A∩B| / |A∪B| between
// two strictly sorted uint32 sets (the Kosarak representation). Two
// empty sets are at distance 0.
func JaccardUint32(a, b []uint32) float32 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	var inter int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return 1 - float32(inter)/float32(union)
}
