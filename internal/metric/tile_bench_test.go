package metric_test

// Kernel-axis micro-benchmarks: the tiled (EvalTile) and block
// (EvalMany) forms at the two anchor shapes (deep float32 dim 96,
// bigann uint8 dim 128), alongside the per-pair benches in
// metric_bench_test.go. The grid across dims 32-960 that the retired
// `dnnd-bench kernels` ran is kept in results/kernels.md (historical).

import (
	"math/rand"
	"testing"

	"dnnd/internal/metric"
)

const (
	benchTileQueries = 8
	benchTileCands   = 64
)

func benchTileF32(dim int) (qs, cands [][]float32) {
	rng := rand.New(rand.NewSource(3))
	qs = make([][]float32, benchTileQueries)
	cands = make([][]float32, benchTileQueries*benchTileCands)
	for i := range qs {
		qs[i] = make([]float32, dim)
		for d := range qs[i] {
			qs[i][d] = rng.Float32()
		}
	}
	for i := range cands {
		cands[i] = make([]float32, dim)
		for d := range cands[i] {
			cands[i][d] = rng.Float32()
		}
	}
	return qs, cands
}

func benchTileU8(dim int) (qs, cands [][]uint8) {
	rng := rand.New(rand.NewSource(4))
	qs = make([][]uint8, benchTileQueries)
	cands = make([][]uint8, benchTileQueries*benchTileCands)
	for i := range qs {
		qs[i] = make([]uint8, dim)
		for d := range qs[i] {
			qs[i][d] = uint8(rng.Intn(256))
		}
	}
	for i := range cands {
		cands[i] = make([]uint8, dim)
		for d := range cands[i] {
			cands[i][d] = uint8(rng.Intn(256))
		}
	}
	return qs, cands
}

func tileOffs() []int32 {
	offs := make([]int32, benchTileQueries+1)
	for i := range offs {
		offs[i] = int32(i * benchTileCands)
	}
	return offs
}

var benchSink float32

func benchEvalTile[T interface{ float32 | uint8 }](b *testing.B, qs, cands [][]T) {
	kern, err := metric.KernelFor[T](metric.SquaredL2)
	if err != nil {
		b.Fatal(err)
	}
	offs := tileOffs()
	out := make([]float32, len(cands))
	pairs := int64(len(cands))
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.EvalTile(qs, offs, cands, nil, out)
	}
	b.StopTimer()
	benchSink += out[0]
	b.ReportMetric(float64(pairs*int64(b.N))/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkTileSquaredL2Deep(b *testing.B) {
	qs, cands := benchTileF32(96)
	benchEvalTile(b, qs, cands)
}

func BenchmarkTileSquaredL2Gist(b *testing.B) {
	qs, cands := benchTileF32(960)
	benchEvalTile(b, qs, cands)
}

// benchEvalMany scores one query against blocks of n candidates, the
// shape of a search expansion (n ≈ 8) or a construction task.
func benchEvalMany(b *testing.B, dim, n int) {
	kern, err := metric.KernelFor[float32](metric.SquaredL2)
	if err != nil {
		b.Fatal(err)
	}
	qs, cands := benchTileF32(dim)
	out := make([]float32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * n) % (len(cands) - n)
		kern.EvalMany(qs[i%len(qs)], cands[j:j+n], nil, out)
	}
	b.StopTimer()
	benchSink += out[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(n)*int64(b.N)), "ns/eval")
}

func BenchmarkEvalManyDeep2(b *testing.B) { benchEvalMany(b, 96, 2) }
func BenchmarkEvalManyDeep8(b *testing.B) { benchEvalMany(b, 96, 8) }
func BenchmarkEvalManyGist8(b *testing.B) { benchEvalMany(b, 960, 8) }

func BenchmarkTileSquaredL2BigANN(b *testing.B) {
	qs, cands := benchTileU8(128)
	benchEvalTile(b, qs, cands)
}
