package metric

import (
	"math"
	"math/rand"
	"testing"
)

// EvalTile extends the EvalMany determinism contract to tiles: however
// queries and candidates are grouped, every out[j] must be the exact
// float32 the per-pair kernel returns. These tests sweep all three
// element kinds over adversarial tile shapes — empty tiles, empty
// segments, single-candidate (ragged tail) segments, odd segment
// lengths that exercise the pair-2 fast paths' tails, and aliased
// query/candidate rows.

// tileShapes enumerates segment-length vectors; each entry is one tile
// (len = query count, values = candidates per query).
var tileShapes = [][]int{
	{},            // empty tile: no queries at all
	{0},           // one query, no candidates
	{1},           // ragged single-candidate segment
	{2},           // exactly one pair-2 step
	{3},           // pair-2 step plus tail
	{0, 5, 0, 1},  // empty segments interleaved
	{7, 2, 9},     // mixed odd/even
	{1, 1, 1, 1},  // all tails
	{16, 0, 3, 8}, // bigger burst
}

func buildOffs(shape []int) ([]int32, int) {
	offs := make([]int32, len(shape)+1)
	total := 0
	for i, n := range shape {
		offs[i+1] = offs[i] + int32(n)
		total += n
	}
	return offs, total
}

func TestEvalTileFloat32BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
			for si, shape := range tileShapes {
				offs, total := buildOffs(shape)
				qs := make([][]float32, len(shape))
				for i := range qs {
					qs[i] = gen()
				}
				cands := make([][]float32, total)
				for j := range cands {
					cands[j] = gen()
				}
				// Adversarial rows: zero vector and query aliases.
				if total > 0 {
					cands[0] = make([]float32, d)
				}
				if total > 1 && len(qs) > 0 {
					cands[1] = qs[0]
				}
				out := make([]float32, total)

				kern.EvalTile(qs, offs, cands, nil, out)
				checkTile(t, kind, d, si, qs, offs, cands, out, func(q, c []float32, _ float32) float32 {
					return kern.Fn(q, c)
				})

				if kern.Norm == nil {
					continue
				}
				nbs := make([]float32, total)
				for j, c := range cands {
					nbs[j] = kern.Norm(c)
				}
				kern.EvalTile(qs, offs, cands, nbs, out)
				checkTile(t, kind, d, si, qs, offs, cands, out, func(q, c []float32, nb float32) float32 {
					return kern.FnPre(q, c, nb)
				})
			}
		}
	}
}

func checkTile(t *testing.T, kind Kind, d, shape int, qs [][]float32, offs []int32, cands [][]float32, out []float32, want func(q, c []float32, nb float32) float32) {
	t.Helper()
	for i, q := range qs {
		for j := offs[i]; j < offs[i+1]; j++ {
			nb := SquaredNormFloat32(cands[j])
			w := want(q, cands[j], nb)
			if math.Float32bits(out[j]) != math.Float32bits(w) {
				t.Errorf("%s dim %d shape %d pair (%d,%d): tiled %x, per-pair %x",
					kind, d, shape, i, j, math.Float32bits(out[j]), math.Float32bits(w))
			}
		}
	}
}

func TestEvalTileUint8BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
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
			for si, shape := range tileShapes {
				offs, total := buildOffs(shape)
				qs := make([][]uint8, len(shape))
				for i := range qs {
					qs[i] = gen()
				}
				cands := make([][]uint8, total)
				for j := range cands {
					cands[j] = gen()
				}
				if total > 0 {
					cands[0] = make([]uint8, d)
				}
				if total > 1 && len(qs) > 0 {
					cands[1] = qs[0]
				}
				out := make([]float32, total)
				kern.EvalTile(qs, offs, cands, nil, out)
				for i, q := range qs {
					for j := offs[i]; j < offs[i+1]; j++ {
						want := kern.Fn(q, cands[j])
						if math.Float32bits(out[j]) != math.Float32bits(want) {
							t.Errorf("%s dim %d shape %d pair (%d,%d): tiled %x, per-pair %x",
								kind, d, si, i, j, math.Float32bits(out[j]), math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

func TestEvalTileJaccardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
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
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j-1] > v[j]; j-- {
				v[j-1], v[j] = v[j], v[j-1]
			}
		}
		return v
	}
	for si, shape := range tileShapes {
		offs, total := buildOffs(shape)
		qs := make([][]uint32, len(shape))
		for i := range qs {
			qs[i] = gen(5 + rng.Intn(30))
		}
		cands := make([][]uint32, total)
		for j := range cands {
			cands[j] = gen(1 + rng.Intn(40))
		}
		if total > 0 {
			cands[0] = []uint32{} // empty set
		}
		if total > 1 && len(qs) > 0 {
			cands[1] = qs[0]
		}
		out := make([]float32, total)
		kern.EvalTile(qs, offs, cands, nil, out)
		for i, q := range qs {
			for j := offs[i]; j < offs[i+1]; j++ {
				want := kern.Fn(q, cands[j])
				if math.Float32bits(out[j]) != math.Float32bits(want) {
					t.Errorf("jaccard shape %d pair (%d,%d): tiled %x, per-pair %x",
						si, i, j, math.Float32bits(out[j]), math.Float32bits(want))
				}
			}
		}
	}
}
