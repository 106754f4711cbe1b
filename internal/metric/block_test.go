package metric

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Every sweep must land on the per-pair kernel's bits for every
// candidate: the eight-, four- and one-candidate sweeps, on both
// dispatches (the AVX assembly when the host has it, and the portable
// Go), are compared with SquaredL2Float32 by math.Float32bits over every
// tail length, unaligned rows, a query aliasing a candidate, and values
// that overflow, underflow or are not numbers. The one exception is a
// NaN result's payload. Go treats float addition as commutative, so
// which of two NaN operands propagates through an add is the
// compiler's choice — for the per-pair kernel too, whose NaN payloads
// differ between a normal and a -race build. A NaN result need only be
// a NaN.

// eachDispatch runs f once per sweep implementation this host has:
// the portable Go always, the AVX assembly when the CPU has AVX. It
// flips useAVX for the duration, so no test may run in parallel with
// it.
func eachDispatch(t *testing.T, f func(t *testing.T)) {
	hasAVX := useAVX
	defer func() { useAVX = hasAVX }()
	modes := []bool{false}
	if hasAVX {
		modes = append(modes, true)
	}
	for _, avx := range modes {
		useAVX = avx
		name := "portable"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

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

// perPairGo is SquaredL2Float32's body, kept here so the sweeps are
// also compared with the Go loop itself, whatever SquaredL2Float32
// later becomes.
func perPairGo(a, b []float32) float32 {
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

func TestSquaredL2SweepsBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, d := range blockDims() {
			for _, st := range blockStyles {
				q := unalignedRow(rng, d, st.gen)
				var cs [8][]float32
				for j := range cs {
					cs[j] = unalignedRow(rng, d, st.gen)
				}
				cs[1] = q                              // a candidate aliasing the query
				cs[3] = unalignedRow(rng, d+3, st.gen) // longer than q
				var x8, x4 [8]float32
				squaredL2x8(q, &cs, &x8)
				x4[0], x4[1], x4[2], x4[3] = squaredL2x4(q, cs[0][:d], cs[1][:d], cs[2][:d], cs[3][:d])
				x4[4], x4[5], x4[6], x4[7] = squaredL2x4(q, cs[4][:d], cs[5][:d], cs[6][:d], cs[7][:d])
				for j, c := range cs {
					want := SquaredL2Float32(q, c)
					x1 := squaredL2x1(q, c)
					if !sameDistance(x8[j], want) || !sameDistance(x4[j], want) || !sameDistance(x1, want) {
						t.Errorf("dim %d %s cand %d: x8 %08x x4 %08x x1 %08x per-pair %08x",
							d, st.name, j, math.Float32bits(x8[j]), math.Float32bits(x4[j]),
							math.Float32bits(x1), math.Float32bits(want))
					}
					if g := perPairGo(q, c); !sameDistance(x1, g) {
						t.Errorf("dim %d %s cand %d: x1 %08x, Go per-pair body %08x",
							d, st.name, j, math.Float32bits(x1), math.Float32bits(g))
					}
				}
			}
		}
	})
}

// manyCounts drives every path of SquaredL2Float32Many: 0-17 covers no
// sweep, each remainder after the four-wide pass, one and two
// eight-wide sweeps with every remainder; 65 is eight sweeps plus one.
func manyCounts() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 65)
}

func TestSquaredL2ManyBitIdentical(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, d := range blockDims() {
			for _, st := range blockStyles {
				q := unalignedRow(rng, d, st.gen)
				for _, n := range manyCounts() {
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
	})
}

// A row shorter than the query panics in the block form exactly as in
// the per-pair kernel, instead of reading past its end: in a four-wide
// sweep, an eight-wide sweep and the one-candidate sweep, on both
// dispatches.
func TestSquaredL2ManyShortRowPanics(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for _, c := range []struct{ n, short int }{{4, 1}, {8, 5}, {9, 8}} {
			q := make([]float32, 8)
			cands := make([][]float32, c.n)
			for i := range cands {
				cands[i] = make([]float32, 8)
			}
			cands[c.short] = make([]float32, 7)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d candidates, row %d short: no panic", c.n, c.short)
					}
				}()
				SquaredL2Float32Many(q, cands, nil, make([]float32, c.n))
			}()
		}
	})
}

// KernelOf is how search, brute force, core.Build and the serve
// workers reach the block kernels from a bare Func, so it must resolve
// every function For hands out to the full kernel of its kind — for
// float32 L2, SquaredL2 and Cosine, one with a Many form — and leave
// any other function plain. A wrapper around one of For's functions is
// scored pair by pair (Many == nil): that silent fallback is the
// documented behaviour, pinned here so it cannot change unnoticed.
func TestKernelOfResolvesByIdentity(t *testing.T) {
	for _, c := range []struct {
		kind     Kind
		wantMany bool
	}{{L2, true}, {SquaredL2, true}, {Cosine, true}, {InnerProduct, false}} {
		f, err := For[float32](c.kind)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := KernelFor[float32](c.kind)
		got := KernelOf(f)
		if (got.Many == nil) != (want.Many == nil) || (got.Norm == nil) != (want.Norm == nil) ||
			(got.ManyMany == nil) != (want.ManyMany == nil) {
			t.Errorf("%s: KernelOf lost fast paths", c.kind)
		}
		if (got.Many != nil) != c.wantMany ||
			(c.wantMany && reflect.ValueOf(got.Many).Pointer() != reflect.ValueOf(want.Many).Pointer()) {
			t.Errorf("%s: KernelOf(For(%s)).Many does not match the kind's block form", c.kind, c.kind)
		}
		wrapped := func(a, b []float32) float32 { return f(a, b) }
		if kern := KernelOf(Func[float32](wrapped)); kern.Many != nil || kern.Fn == nil {
			t.Errorf("%s: a wrapping closure must fall back to a per-pair kernel", c.kind)
		}
	}
	if kern := KernelOf(Func[float32](SquaredL2Float32)); kern.Many == nil {
		t.Error("sql2 by direct reference did not resolve to the block form")
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
	cands := make([][]float32, 17)
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
