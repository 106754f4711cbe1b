package metric

import (
	"math"
	"math/rand"
	"testing"
)

// The worker pool offloads distance batches through EvalMany, while the
// serial apply path (and every pre-pool build) evaluates per pair. The
// determinism guarantee — Workers=4 bit-identical to Workers=1 —
// therefore reduces to: EvalMany(q, cands, nbs, out) writes exactly the
// float32 the corresponding per-pair call would return, for every
// metric kind, element type, and norm-cache configuration. These tests
// pin that contract bitwise.

func evalManyCands(rng *rand.Rand, gen func() []float32, n int) [][]float32 {
	cands := make([][]float32, n)
	for i := range cands {
		cands[i] = gen()
	}
	return cands
}

func TestEvalManyFloat32BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []Kind{L2, SquaredL2, Cosine, InnerProduct} {
		kern, err := KernelFor[float32](kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range propDims {
			gen := func() []float32 {
				v := make([]float32, d)
				for i := range v {
					v[i] = rng.Float32()*2 - 1
				}
				return v
			}
			q := gen()
			cands := evalManyCands(rng, gen, 9)
			// Adversarial entries: zero vector and an alias of the query.
			cands = append(cands, make([]float32, d), q)
			out := make([]float32, len(cands))

			// Plain path (no cached norms): must match Fn per pair.
			kern.EvalMany(q, cands, nil, out)
			for i, c := range cands {
				if want := kern.Fn(q, c); math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Errorf("%s dim %d cand %d plain: batched %x, per-pair %x",
						kind, d, i, math.Float32bits(out[i]), math.Float32bits(want))
				}
			}

			// Norm-cached path, where the kernel has one.
			if kern.Norm == nil {
				continue
			}
			nbs := make([]float32, len(cands))
			for i, c := range cands {
				nbs[i] = kern.Norm(c)
			}
			kern.EvalMany(q, cands, nbs, out)
			for i, c := range cands {
				want := kern.FnPre(q, c, nbs[i])
				if math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Errorf("%s dim %d cand %d pre-norm: batched %x, FnPre %x",
						kind, d, i, math.Float32bits(out[i]), math.Float32bits(want))
				}
				// And FnPre itself is pinned to Fn elsewhere; close the
				// triangle here so a Many drift cannot hide behind it.
				if plain := kern.Fn(q, c); math.Float32bits(want) != math.Float32bits(plain) {
					t.Errorf("%s dim %d cand %d: FnPre %x, Fn %x",
						kind, d, i, math.Float32bits(want), math.Float32bits(plain))
				}
			}
		}
	}
}

func TestEvalManyUint8BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, kind := range []Kind{L2, SquaredL2, Hamming} {
		kern, err := KernelFor[uint8](kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range propDims {
			gen := func() []uint8 {
				v := make([]uint8, d)
				for i := range v {
					v[i] = uint8(rng.Intn(256))
				}
				return v
			}
			q := gen()
			cands := make([][]uint8, 0, 8)
			for i := 0; i < 6; i++ {
				cands = append(cands, gen())
			}
			cands = append(cands, make([]uint8, d), q)
			out := make([]float32, len(cands))
			kern.EvalMany(q, cands, nil, out)
			for i, c := range cands {
				if want := kern.Fn(q, c); math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Errorf("%s dim %d cand %d: batched %x, per-pair %x",
						kind, d, i, math.Float32bits(out[i]), math.Float32bits(want))
				}
			}
		}
	}
}

func TestEvalManyJaccardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	kern, err := KernelFor[uint32](Jaccard)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(n int) []uint32 {
		seen := map[uint32]bool{}
		for len(seen) < n {
			seen[uint32(rng.Intn(500))] = true
		}
		v := make([]uint32, 0, n)
		for x := range seen {
			v = append(v, x)
		}
		// Strictly sorted, as JaccardUint32 requires.
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j-1] > v[j]; j-- {
				v[j-1], v[j] = v[j], v[j-1]
			}
		}
		return v
	}
	q := gen(20)
	cands := [][]uint32{gen(5), gen(40), {}, q}
	out := make([]float32, len(cands))
	kern.EvalMany(q, cands, nil, out)
	for i, c := range cands {
		if want := kern.Fn(q, c); math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Errorf("jaccard cand %d: batched %x, per-pair %x",
				i, math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
}

// EvalMany's documented fallthrough: a kernel with no pre-norm form
// (Norm/FnPre/Many all nil) ignores a non-nil nbs and runs the plain
// Fn path — the values cannot mean anything to a kernel that never
// defined a Norm. Pin that the nbs contents are genuinely inert, even
// when they are garbage.
func TestEvalManyNoPreNormIgnoresNbs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	kern, err := KernelFor[uint8](SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Norm != nil || kern.FnPre != nil || kern.Many != nil {
		t.Fatal("sql2/uint8 unexpectedly grew a pre-norm path; update this test")
	}
	d := 64
	gen := func() []uint8 {
		v := make([]uint8, d)
		for i := range v {
			v[i] = uint8(rng.Intn(256))
		}
		return v
	}
	q := gen()
	cands := [][]uint8{gen(), gen(), gen()}
	garbage := []float32{float32(math.NaN()), float32(math.Inf(1)), -12345}
	out := make([]float32, len(cands))
	kern.EvalMany(q, cands, garbage, out)
	for i, c := range cands {
		if want := kern.Fn(q, c); math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Errorf("cand %d: nbs-carrying call %x, Fn %x",
				i, math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
}

// CosineManyPreNormFloat32 skips the per-pair |q|^2 recomputation; its
// hoisted SquaredNormFloat32(q) must land on the same bits dotAndNorm's
// query lanes produce, on adversarial values too.
func TestCosineManyPreNormBitIdentical(t *testing.T) {
	floatCases(t, func(name string, a, b []float32) {
		cands := [][]float32{b, a, b}
		nbs := []float32{
			SquaredNormFloat32(b),
			SquaredNormFloat32(a),
			SquaredNormFloat32(b),
		}
		out := make([]float32, len(cands))
		CosineManyPreNormFloat32(a, cands, nbs, out)
		for i, c := range cands {
			want := CosinePreNormFloat32(a, c, nbs[i])
			if math.Float32bits(out[i]) != math.Float32bits(want) {
				t.Errorf("dim %d %s cand %d: batched %x, per-pair %x",
					len(a), name, i, math.Float32bits(out[i]), math.Float32bits(want))
			}
		}
	})
}
