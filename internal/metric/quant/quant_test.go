package quant

import (
	"math"
	"math/rand"
	"testing"

	"dnnd/internal/metric"
)

func randVecs(rng *rand.Rand, n, dim int, lo, hi float32) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for d := range v {
			v[d] = lo + rng.Float32()*(hi-lo)
		}
		vecs[i] = v
	}
	return vecs
}

// Encoding a training vector must round-trip within s/2 per dimension,
// and the returned ε must be the exact reconstruction error.
func TestEncodeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vecs := randVecs(rng, 200, 24, -3, 7)
	p := TrainFloat32(vecs, 24)
	if p.Scale <= 0 {
		t.Fatalf("scale = %v, want > 0", p.Scale)
	}
	code := make([]uint8, 24)
	dec := make([]float32, 24)
	for i, v := range vecs {
		eps := p.EncodeFloat32(v, code)
		p.DecodeFloat32(code, dec)
		var want float64
		for d := range v {
			r := float64(v[d] - dec[d])
			want += r * r
			if diff := math.Abs(float64(v[d] - dec[d])); diff > float64(p.Scale)/2*(1+1e-4) {
				t.Fatalf("vec %d dim %d: |v-dec| = %v exceeds s/2 = %v", i, d, diff, p.Scale/2)
			}
		}
		if got, w := float64(eps), math.Sqrt(want); math.Abs(got-w) > 1e-4*(1+w) {
			t.Fatalf("vec %d: reported eps %v, recomputed %v", i, got, w)
		}
	}
}

// The triangle bound | ‖a-b‖ − s·√CD | ≤ ε(a)+ε(b) must hold for every
// pair, including out-of-range queries that get clamped (their larger ε
// keeps the bound sound).
func TestApproxEnvelopeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	dim := 32
	vecs := randVecs(rng, 300, dim, -1, 1)
	view := NewViewFloat32(vecs, dim)
	code := make([]uint8, dim)
	// Queries from a WIDER range than training so clamping happens.
	queries := randVecs(rng, 50, dim, -2.5, 2.5)
	for qi, q := range queries {
		qerr := view.Params.EncodeFloat32(q, code)
		for i, v := range vecs {
			exact := metric.L2Float32(q, v)
			approx := view.ApproxL2(code, i)
			if slack := qerr + view.Err(i); math.Abs(float64(exact-approx)) > float64(slack)*(1+1e-5)+1e-5 {
				t.Fatalf("query %d row %d: |exact %v - approx %v| outside envelope (qerr %v, rowerr %v)",
					qi, i, exact, approx, qerr, view.Err(i))
			}
		}
	}
}

// uint8 passthrough views are exact: approximate distance == true L2,
// errors all zero.
func TestUint8PassthroughExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	dim := 16
	vecs := make([][]uint8, 40)
	for i := range vecs {
		v := make([]uint8, dim)
		for d := range v {
			v[d] = uint8(rng.Intn(256))
		}
		vecs[i] = v
	}
	view := NewViewUint8(vecs, dim)
	if !view.Exact {
		t.Fatal("uint8 view not marked Exact")
	}
	for i := range vecs {
		if view.Err(i) != 0 {
			t.Fatalf("row %d err %v, want 0", i, view.Err(i))
		}
		for j := range vecs {
			got := view.ApproxL2(view.Code(i), j)
			want := metric.L2Uint8(vecs[i], vecs[j])
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("pair (%d,%d): approx %x, exact %x", i, j, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// Constant training data degenerates to Scale 0; encoding must still
// be well-defined and the bound sound.
func TestConstantDataDegenerate(t *testing.T) {
	vecs := [][]float32{{2, 2, 2}, {2, 2, 2}}
	p := TrainFloat32(vecs, 3)
	if p.Scale != 0 {
		t.Fatalf("scale %v, want 0", p.Scale)
	}
	code := make([]uint8, 3)
	eps := p.EncodeFloat32([]float32{2, 2, 5}, code)
	if want := float32(3); math.Abs(float64(eps-want)) > 1e-6 {
		t.Fatalf("eps %v, want %v", eps, want)
	}
	view := NewViewFloat32(vecs, 3)
	q := []float32{4, 2, 2}
	qerr := view.Params.EncodeFloat32(q, code)
	exact := metric.L2Float32(q, vecs[0])
	if lb := view.ApproxL2(code, 0) - qerr - view.Err(0); lb > exact+1e-6 {
		t.Fatalf("degenerate lower bound %v exceeds exact %v", lb, exact)
	}
}

// AppendFloat32 (the incremental-insert delta path) must encode with
// the same params as the initial build.
func TestAppendMatchesInitialEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	dim := 12
	all := randVecs(rng, 60, dim, 0, 1)
	whole := NewViewFloat32(all, dim)
	part := NewViewFloat32(all, dim)
	// Re-encode the tail through Append with the same params: identical
	// codes and errors as encoding inline.
	extra := randVecs(rng, 15, dim, 0, 1)
	AppendFloat32(whole, extra)
	AppendFloat32(part, extra)
	if whole.Len() != 75 || part.Len() != 75 {
		t.Fatalf("lens %d/%d, want 75", whole.Len(), part.Len())
	}
	for i := 60; i < 75; i++ {
		ci, cj := whole.Code(i), part.Code(i)
		for d := range ci {
			if ci[d] != cj[d] {
				t.Fatalf("row %d dim %d: codes diverge", i, d)
			}
		}
		if math.Float32bits(whole.Err(i)) != math.Float32bits(part.Err(i)) {
			t.Fatalf("row %d: errs diverge", i)
		}
	}
}
