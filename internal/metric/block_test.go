package metric

import (
	"math"
	"math/rand"
	"testing"
)

// The four-candidate sweep must land on the per-pair kernel's bits for
// every candidate: the assembly form, the portable form and
// SquaredL2Float32 are compared by math.Float32bits over every tail
// length, unaligned rows, a query aliasing a candidate, and values that
// overflow, underflow or are not numbers. The one exception is a NaN
// result's payload. Go treats float addition as commutative, so which
// of two NaN operands propagates through an add is the compiler's
// choice — for the per-pair kernel too, whose NaN payloads differ
// between a normal and a -race build. A NaN result need only be a NaN.

// blockDims covers every len%4 tail at small sizes, deep's 96 and
// gist's 960 with their neighbors.
func blockDims() []int {
	var ds []int
	for d := 0; d <= 70; d++ {
		ds = append(ds, d)
	}
	return append(ds, 95, 96, 97, 960, 961)
}

// blockStyles are the value generators: ordinary values, squares near
// float32 overflow, subnormals, and a mix of ±Inf and NaNs with
// different payloads and signs.
var blockStyles = []struct {
	name string
	gen  func(rng *rand.Rand) float32
}{
	{"uniform", func(rng *rand.Rand) float32 { return rng.Float32()*2 - 1 }},
	{"huge", func(rng *rand.Rand) float32 { return (rng.Float32()*2 - 1) * 1e19 }},
	{"subnormal", func(rng *rand.Rand) float32 { return (rng.Float32()*2 - 1) * 1e-40 }},
	{"special", func(rng *rand.Rand) float32 {
		switch rng.Intn(8) {
		case 0:
			return float32(math.Inf(1))
		case 1:
			return float32(math.Inf(-1))
		case 2:
			return math.Float32frombits(0x7fc00000) // quiet NaN
		case 3:
			return math.Float32frombits(0xffc01234) // negative NaN, other payload
		case 4:
			return math.Float32frombits(0x7f800001) // signaling NaN
		default:
			return rng.Float32()*2 - 1
		}
	}},
}

// unalignedRow returns a fresh row of d values starting at an odd
// offset into its backing array, so it is not 16-byte aligned.
func unalignedRow(rng *rand.Rand, d int, gen func(*rand.Rand) float32) []float32 {
	off := 1 + rng.Intn(3)
	v := make([]float32, off+d)[off:]
	for i := range v {
		v[i] = gen(rng)
	}
	return v
}

// sameDistance compares by bits, with every NaN equal to every other.
func sameDistance(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

func TestSquaredL2x4BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, d := range blockDims() {
		for _, st := range blockStyles {
			q := unalignedRow(rng, d, st.gen)
			cs := [4][]float32{
				unalignedRow(rng, d, st.gen),
				q, // a candidate aliasing the query
				unalignedRow(rng, d, st.gen),
				unalignedRow(rng, d+3, st.gen), // longer than q
			}
			var asm, gen [4]float32
			asm[0], asm[1], asm[2], asm[3] = squaredL2x4(q, cs[0][:d], cs[1][:d], cs[2][:d], cs[3][:d])
			gen[0], gen[1], gen[2], gen[3] = squaredL2x4Go(q, cs[0], cs[1], cs[2], cs[3])
			for j, c := range cs {
				want := SquaredL2Float32(q, c)
				if !sameDistance(asm[j], want) || !sameDistance(gen[j], want) {
					t.Errorf("dim %d %s cand %d: asm %08x portable %08x per-pair %08x",
						d, st.name, j, math.Float32bits(asm[j]), math.Float32bits(gen[j]), math.Float32bits(want))
				}
			}
		}
	}
}

func TestSquaredL2ManyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 65}
	for _, d := range blockDims() {
		for _, st := range blockStyles {
			q := unalignedRow(rng, d, st.gen)
			for _, n := range counts {
				cands := make([][]float32, n)
				for i := range cands {
					cands[i] = unalignedRow(rng, d, st.gen)
				}
				if n > 0 {
					cands[rng.Intn(n)] = q
				}
				sq := make([]float32, n)
				l2 := make([]float32, n)
				SquaredL2Float32Many(q, cands, nil, sq)
				L2Float32Many(q, cands, nil, l2)
				for i, c := range cands {
					if want := SquaredL2Float32(q, c); !sameDistance(sq[i], want) {
						t.Errorf("dim %d %s n %d cand %d: sql2 block %08x, per-pair %08x",
							d, st.name, n, i, math.Float32bits(sq[i]), math.Float32bits(want))
					}
					if want := L2Float32(q, c); !sameDistance(l2[i], want) {
						t.Errorf("dim %d %s n %d cand %d: l2 block %08x, per-pair %08x",
							d, st.name, n, i, math.Float32bits(l2[i]), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// A row shorter than the query panics in the block form exactly as in
// the per-pair kernel, instead of reading past its end.
func TestSquaredL2ManyShortRowPanics(t *testing.T) {
	q := make([]float32, 8)
	cands := [][]float32{make([]float32, 8), make([]float32, 7), make([]float32, 8), make([]float32, 8)}
	defer func() {
		if recover() == nil {
			t.Fatal("short candidate row did not panic")
		}
	}()
	SquaredL2Float32Many(q, cands, nil, make([]float32, len(cands)))
}

// KernelOf must resolve every function For hands out to the full
// kernel of its kind, and leave any other function plain.
func TestKernelOfResolvesByIdentity(t *testing.T) {
	for _, k := range []Kind{L2, SquaredL2, Cosine, InnerProduct} {
		f, err := ForFloat32(k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := KernelFor[float32](k)
		got := KernelOf(f)
		if (got.Many == nil) != (want.Many == nil) || (got.Norm == nil) != (want.Norm == nil) ||
			(got.ManyMany == nil) != (want.ManyMany == nil) {
			t.Errorf("%s: KernelOf lost fast paths", k)
		}
	}
	if kern := KernelOf(Func[float32](SquaredL2Float32)); kern.Many == nil {
		t.Error("sql2 by direct reference did not resolve to the block form")
	}
	wrapped := func(a, b []float32) float32 { return SquaredL2Float32(a, b) }
	if kern := KernelOf(Func[float32](wrapped)); kern.Many != nil || kern.Fn == nil {
		t.Error("a closure must resolve to a plain kernel")
	}
	if kern := KernelOf(Func[uint8](SquaredL2Uint8)); kern.ManyMany == nil {
		t.Error("uint8 sql2 did not resolve to its tiled form")
	}
}

// Resolving a kernel sits on the per-query path, so it must not
// allocate.
func TestKernelOfZeroAlloc(t *testing.T) {
	f := Func[float32](L2Float32)
	if avg := testing.AllocsPerRun(100, func() { _ = KernelOf(f) }); avg != 0 {
		t.Errorf("KernelOf allocates %.1f/op, want 0", avg)
	}
}

// The block form sits under every construction task and search
// expansion; no candidate count, remainders included, may allocate.
func TestEvalManyBlockZeroAlloc(t *testing.T) {
	kern, err := KernelFor[float32](SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	q := unalignedRow(rng, 96, blockStyles[0].gen)
	cands := make([][]float32, 9)
	for i := range cands {
		cands[i] = unalignedRow(rng, 96, blockStyles[0].gen)
	}
	out := make([]float32, len(cands))
	for n := 0; n <= len(cands); n++ {
		if avg := testing.AllocsPerRun(100, func() { kern.EvalMany(q, cands[:n], nil, out) }); avg != 0 {
			t.Errorf("EvalMany over %d candidates allocates %.1f/op, want 0", n, avg)
		}
	}
}
