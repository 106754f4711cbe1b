// Package quant implements per-dimension scalar quantization of
// feature vectors to uint8 codes, plus the distance machinery that
// lets the query path traverse on the codes as a cheap first pass with
// a rigorous error bound.
//
// Scheme: the trainer finds each dimension's minimum (the offset) and
// a single UNIFORM scale s = max_d(range_d)/255 across dimensions.
// Encoding is e_d = round((v_d - off_d)/s); decoding is off_d + s·e_d.
// The uniform scale is what makes code-space distance meaningful:
// for codes p, q the squared code distance CD = Σ(p_d-q_d)² relates to
// the decoded vectors u, v by ‖u-v‖ = s·√CD exactly, so one integer
// kernel pass (the same 4-lane uint8 kernel the bigann preset uses)
// yields the decoded-space L2 with no per-dimension rescaling.
//
// The bound: encoding rounds each in-range dimension by at most s/2,
// and Encode measures the EXACT per-vector reconstruction error
// ε(v) = ‖v - decode(encode(v))‖ in the same pass (so clamping of
// out-of-range query dimensions is accounted for, not assumed away).
// By the triangle inequality,
//
//	| ‖a-b‖ − s·√CD(a,b) | ≤ ε(a) + ε(b)
//
// so s·√CD − ε(a) − ε(b) is a sound lower bound on the exact distance.
//
// uint8 datasets pass through losslessly (identity params, ε = 0): the
// codes ARE the vectors and the "approximate" distance is exact.
package quant

import (
	"fmt"
	"math"

	"dnnd/internal/metric"
	"dnnd/internal/wire"
)

// Params holds a trained quantizer: per-dimension offsets and one
// uniform scale.
type Params struct {
	Dim    int
	Offset []float32
	// Scale is the uniform code step; 0 means the training data was
	// constant per dimension (codes all land on 0) or the params are a
	// lossless passthrough.
	Scale float32
}

// Lossless reports whether encoding with p is exact (passthrough for
// native uint8 data, or degenerate constant training data).
func (p Params) Lossless() bool { return p.Scale == 0 }

// TrainFloat32 fits Params over a training set (each row Dim long).
func TrainFloat32(vecs [][]float32, dim int) Params {
	p := Params{Dim: dim, Offset: make([]float32, dim)}
	if len(vecs) == 0 || dim == 0 {
		return p
	}
	max := make([]float32, dim)
	for d := 0; d < dim; d++ {
		p.Offset[d] = vecs[0][d]
		max[d] = vecs[0][d]
	}
	for _, v := range vecs {
		for d, x := range v[:dim] {
			if x < p.Offset[d] {
				p.Offset[d] = x
			}
			if x > max[d] {
				max[d] = x
			}
		}
	}
	var span float32
	for d := 0; d < dim; d++ {
		if r := max[d] - p.Offset[d]; r > span {
			span = r
		}
	}
	p.Scale = span / 255
	return p
}

// EncodeFloat32 quantizes v into code (len >= p.Dim) and returns the
// exact reconstruction error ε(v) = ‖v - decode(code)‖, measured in
// the same pass so clamped out-of-range dimensions are charged their
// true cost.
func (p Params) EncodeFloat32(v []float32, code []uint8) float32 {
	if p.Scale == 0 {
		for d := 0; d < p.Dim; d++ {
			code[d] = 0
		}
		// Constant training data: every dimension decodes to its
		// offset; the error is the distance from v to that point.
		var e float64
		for d := 0; d < p.Dim; d++ {
			r := float64(v[d] - p.Offset[d])
			e += r * r
		}
		return float32(math.Sqrt(e))
	}
	var e float64
	for d := 0; d < p.Dim; d++ {
		q := (v[d] - p.Offset[d]) / p.Scale
		c := int32(math.RoundToEven(float64(q)))
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		code[d] = uint8(c)
		r := float64(v[d] - (p.Offset[d] + p.Scale*float32(c)))
		e += r * r
	}
	return float32(math.Sqrt(e))
}

// DecodeFloat32 reconstructs code into v (len >= p.Dim).
func (p Params) DecodeFloat32(code []uint8, v []float32) {
	for d := 0; d < p.Dim; d++ {
		v[d] = p.Offset[d] + p.Scale*float32(code[d])
	}
}

// View is a quantized snapshot of a vector set: one code row per
// vector plus its exact reconstruction error, trained once and shared
// read-only by every evaluation site on the rank.
type View struct {
	Dim    int
	Params Params
	codes  []uint8   // n × Dim, row-major contiguous
	errs   []float32 // per-row ε; nil means all zero (lossless)
	// Exact marks a lossless passthrough view (uint8 data): code
	// distance is the true distance.
	Exact bool
}

// Len returns the number of encoded rows.
func (v *View) Len() int { return len(v.codes) / max(v.Dim, 1) }

// Code returns row i's code slice.
func (v *View) Code(i int) []uint8 {
	return v.codes[i*v.Dim : (i+1)*v.Dim : (i+1)*v.Dim]
}

// Err returns row i's exact reconstruction error.
func (v *View) Err(i int) float32 {
	if v.errs == nil {
		return 0
	}
	return v.errs[i]
}

// Append encodes more rows (the incremental-insert path): the delta of
// vectors arriving after the initial build reuses the trained params.
func AppendFloat32(v *View, vecs [][]float32) {
	for _, row := range vecs {
		start := len(v.codes)
		v.codes = append(v.codes, make([]uint8, v.Dim)...)
		e := v.Params.EncodeFloat32(row, v.codes[start:])
		v.errs = append(v.errs, e)
	}
}

// NewViewFloat32 trains params over vecs and encodes every row.
func NewViewFloat32(vecs [][]float32, dim int) *View {
	p := TrainFloat32(vecs, dim)
	v := &View{Dim: dim, Params: p, codes: make([]uint8, 0, len(vecs)*dim), errs: make([]float32, 0, len(vecs))}
	AppendFloat32(v, vecs)
	return v
}

// NewViewUint8 wraps native uint8 vectors as a lossless passthrough
// view: identity params (Scale 0 marks lossless; approximate distance
// uses scale 1 over the raw bytes), zero reconstruction error.
func NewViewUint8(vecs [][]uint8, dim int) *View {
	v := &View{
		Dim:    dim,
		Params: Params{Dim: dim, Offset: make([]float32, dim)},
		codes:  make([]uint8, 0, len(vecs)*dim),
		Exact:  true,
	}
	for _, row := range vecs {
		v.codes = append(v.codes, row[:dim]...)
	}
	return v
}

// scale returns the code-space → vector-space distance factor.
func (v *View) scale() float32 {
	if v.Exact || v.Params.Scale == 0 {
		return 1
	}
	return v.Params.Scale
}

// ApproxL2 returns the decoded-space L2 distance s·√CD between a query
// code and row i.
func (v *View) ApproxL2(qcode []uint8, i int) float32 {
	cd := metric.SquaredL2Uint8(qcode, v.Code(i))
	return v.scale() * float32(math.Sqrt(float64(cd)))
}

// NewView builds the right view for the element type: trained scalar
// quantization for float32 data, lossless passthrough for uint8.
func NewView[T wire.Scalar](vecs [][]T, dim int) (*View, error) {
	switch vv := any(vecs).(type) {
	case [][]float32:
		return NewViewFloat32(vv, dim), nil
	case [][]uint8:
		return NewViewUint8(vv, dim), nil
	default:
		return nil, fmt.Errorf("quant: element type %T unsupported", vecs)
	}
}

// Encode quantizes a query with v's params. float32 queries encode
// into *scratch (grown as needed and written back, so callers can pool
// buffers); uint8 queries pass through untouched — the returned code
// aliases q and scratch is not used. Returns the code and the exact
// reconstruction error.
func Encode[T wire.Scalar](v *View, q []T, scratch *[]uint8) (code []uint8, qerr float32) {
	switch qq := any(q).(type) {
	case []float32:
		s := *scratch
		if cap(s) < v.Dim {
			s = make([]uint8, v.Dim)
		}
		s = s[:v.Dim]
		*scratch = s
		qerr = v.Params.EncodeFloat32(qq, s)
		return s, qerr
	case []uint8:
		return qq[:v.Dim], 0
	default:
		panic("quant: unsupported query element type")
	}
}

// Supported reports whether quantized filtering is defined for a
// metric kind (v1: the L2 family only — cosine and inner-product
// distances do not bound by code-space L2).
func Supported(kind metric.Kind) bool {
	return kind == metric.L2 || kind == metric.SquaredL2
}

// ErrUnsupported explains a Supported() failure for config validation.
func ErrUnsupported(kind metric.Kind) error {
	return fmt.Errorf("quant: metric %q unsupported (quantized filtering is defined for l2/sql2 only)", kind)
}
