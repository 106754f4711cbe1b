package metric

import (
	"math"
	"math/rand"
	"testing"
)

// ManyMany extends the EvalMany determinism contract to tiles: however
// queries and candidates are grouped, every out[j] must be the exact
// float32 the per-pair kernel returns. The test sweeps every float32
// kernel with a tiled form over adversarial tile shapes — empty tiles,
// empty segments, single-candidate (ragged tail) segments, odd segment
// lengths that exercise the four-candidate sweep's tails, and aliased
// query/candidate rows.

// tileShapes enumerates segment-length vectors; each entry is one tile
// (len = query count, values = candidates per query).
var tileShapes = [][]int{
	{},            // empty tile: no queries at all
	{0},           // one query, no candidates
	{1},           // ragged single-candidate segment
	{2},           // two candidates
	{3},           // odd length
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
	for _, kind := range []Kind{L2, SquaredL2, Cosine} {
		kern, err := KernelFor[float32](kind)
		if err != nil {
			t.Fatal(err)
		}
		if kern.ManyMany == nil {
			t.Fatalf("%s: no tiled form", kind)
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

				kern.ManyMany(qs, offs, cands, nil, out)
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
				kern.ManyMany(qs, offs, cands, nbs, out)
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
