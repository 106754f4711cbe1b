package quant

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantRoundTrip feeds arbitrary byte strings through the trainer
// and encoder and checks the round-trip invariant: decode(encode(v)) is
// within s/2 of v per dimension for vectors inside the trained range,
// and EncodeFloat32's returned ε always equals the exact reconstruction
// error. (The |exact − approx| ≤ ε(a)+ε(b) envelope is pinned at sane
// magnitudes by TestApproxEnvelopeSound; under fuzzing float32
// cancellation near 1e10 breaks any fixed tolerance for it, and no
// caller prunes on the bound any more.)
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 250, 100})
	// Coordinates near -2.8e10 with a narrow range: float32 rounding of
	// the reconstruction is comparable to s/2.
	f.Add([]byte("0\xd0\xd0\xd0\xd4\xd0\xd0\xd01\xd0\xd0\xd00000"))
	f.Add([]byte("0\xd0\xd0\xd0\xd4\xd0\xd0\xd0\x00d\xd0\xd000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the payload as float32s; need at least 2 vectors of
		// dim >= 1.
		n := len(data) / 4
		if n < 4 {
			return
		}
		vals := make([]float32, n)
		for i := range vals {
			u := binary.LittleEndian.Uint32(data[i*4:])
			v := math.Float32frombits(u)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e15 {
				// Quantization contracts are over finite data; huge
				// magnitudes overflow float32 range arithmetic.
				return
			}
			vals[i] = v
		}
		dim := n / 4
		if dim > 16 {
			dim = 16
		}
		rows := n / dim
		vecs := make([][]float32, rows)
		for i := range vecs {
			vecs[i] = vals[i*dim : (i+1)*dim]
		}
		// Train on the front half, so back-half vectors exercise the
		// out-of-range clamping path.
		train := vecs[:(rows+1)/2]
		p := TrainFloat32(train, dim)

		code := make([]uint8, dim)
		dec := make([]float32, dim)
		for vi, v := range vecs {
			eps := p.EncodeFloat32(v, code)
			p.DecodeFloat32(code, dec)
			var exactErr float64
			for d := range v[:dim] {
				r := float64(v[d] - dec[d])
				exactErr += r * r
			}
			want := math.Sqrt(exactErr)
			if math.Abs(float64(eps)-want) > 1e-3*(1+want) {
				t.Fatalf("vec %d: reported eps %v, exact %v", vi, eps, want)
			}
			// The idealized s/2 round-trip claim assumes normal-range
			// float arithmetic; subnormal scales round a full step, and
			// off + s*c is itself rounded to float32, which at large
			// magnitudes (|v| ~ 1e10 with a narrow range) is no longer
			// small against s/2 — hence the few-ulp term.
			if vi < len(train) && p.Scale > 1e-35 {
				for d := range v[:dim] {
					ulps := 8 * math.Abs(float64(v[d])) / (1 << 23)
					if diff := math.Abs(float64(v[d] - dec[d])); diff > float64(p.Scale)/2*(1+1e-3)+ulps {
						t.Fatalf("in-range vec %d dim %d: round-trip error %v > s/2 %v", vi, d, diff, p.Scale/2)
					}
				}
			}
		}
	})
}
