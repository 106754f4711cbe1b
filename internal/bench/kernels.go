package bench

import (
	"fmt"
	"math/rand"
	"time"

	"dnnd/internal/metric"
	"dnnd/internal/metric/quant"
)

// KernelRow is one measured point of the distance-kernel sweep: one
// (element type, dimension, evaluation form) cell.
type KernelRow struct {
	Elem    string
	Dim     int
	Variant string // pair, many, tile, quant
	// PairsPerSec is evaluated distance pairs per second.
	PairsPerSec float64
	// GBPerSec is the bytes-touched rate: 2 vectors per pair at the
	// variant's element width (1 byte for quant codes).
	GBPerSec float64
	// Speedup is PairsPerSec over the per-pair Fn baseline at the same
	// elem/dim.
	Speedup float64
}

// kernel microbenchmark geometry: 8 queries against 64 candidates
// each, the tile shape benchmark/probes.go also times.
const (
	kernelTileQueries = 8
	kernelTileCands   = 64
)

// Kernels measures the distance-kernel forms head to head: per-pair Fn
// calls, the batched one-vs-many EvalMany (what a check-phase task
// runs), the cache-blocked many-vs-many EvalTile, and the quantized
// code distance (encode + ApproxL2, what dnnd-serve -quant traverses
// on before its exact re-rank). All forms except quant produce
// bit-identical float32 distances. Throughput is reported as pairs/s
// and effective GB/s over a dim sweep for float32 and uint8 (the bigann
// anchor's element type).
func Kernels(opt Options) ([]KernelRow, error) {
	opt.fill()
	dims := []int{32, 96, 128, 256, 960}
	minTime := 60 * time.Millisecond
	if opt.Quick {
		dims = []int{32, 128}
		minTime = 10 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	var rows []KernelRow
	for _, dim := range dims {
		f32 := kernelRowsFloat32(rng, dim, minTime)
		rows = append(rows, f32...)
	}
	for _, dim := range dims {
		u8 := kernelRowsUint8(rng, dim, minTime)
		rows = append(rows, u8...)
	}

	header(opt.Out, "Distance-kernel throughput (tile %dx%d, sql2)", kernelTileQueries, kernelTileCands)
	fmt.Fprintf(opt.Out, "pair = per-pair Fn; many = EvalMany (1 query x %d candidates);\n", kernelTileCands)
	fmt.Fprintf(opt.Out, "tile = EvalTile/ManyMany (%d queries x %d candidates); quant = uint8\n", kernelTileQueries, kernelTileCands)
	fmt.Fprintf(opt.Out, "code distance (encode + ApproxL2), the serve-side -quant traversal\n")
	fmt.Fprintf(opt.Out, "kernel. GB/s counts 2 vectors per pair at the variant's element width.\n\n")
	t := newTable("elem", "dim", "variant", "pairs/s", "GB/s", "x pair")
	for _, r := range rows {
		t.row(r.Elem, fmt.Sprintf("%d", r.Dim), r.Variant,
			fmt.Sprintf("%.2fM", r.PairsPerSec/1e6), f2(r.GBPerSec), f2(r.Speedup))
	}
	t.render(opt.Out)
	return rows, nil
}

// kernelSink defeats dead-code elimination of the measured loops.
var kernelSink float32

// measureKernel times run (which evaluates pairs distance pairs per
// call) until minTime has elapsed and returns the pairs/s rate.
func measureKernel(pairs int, minTime time.Duration, run func()) float64 {
	run() // warm: page in the panels, JIT-free but fills caches honestly
	start := time.Now()
	var calls int
	for time.Since(start) < minTime {
		run()
		calls++
	}
	elapsed := time.Since(start).Seconds()
	return float64(calls*pairs) / elapsed
}

func kernelRowsFloat32(rng *rand.Rand, dim int, minTime time.Duration) []KernelRow {
	qs := make([][]float32, kernelTileQueries)
	for i := range qs {
		qs[i] = randVecF32(rng, dim)
	}
	cands := make([][]float32, kernelTileQueries*kernelTileCands)
	for i := range cands {
		cands[i] = randVecF32(rng, dim)
	}
	kern, _ := metric.KernelFor[float32](metric.SquaredL2)
	return kernelVariants("float32", dim, 4, minTime, kern, qs, cands,
		quant.NewViewFloat32(cands, dim))
}

func kernelRowsUint8(rng *rand.Rand, dim int, minTime time.Duration) []KernelRow {
	qs := make([][]uint8, kernelTileQueries)
	for i := range qs {
		qs[i] = randVecU8(rng, dim)
	}
	cands := make([][]uint8, kernelTileQueries*kernelTileCands)
	for i := range cands {
		cands[i] = randVecU8(rng, dim)
	}
	kern, _ := metric.KernelFor[uint8](metric.SquaredL2)
	return kernelVariants("uint8", dim, 1, minTime, kern, qs, cands,
		quant.NewViewUint8(cands, dim))
}

// kernelVariants runs the four evaluation forms over one prepared
// query/candidate panel and returns their rows.
func kernelVariants[T interface{ float32 | uint8 }](elem string, dim, elemBytes int,
	minTime time.Duration, kern metric.Kernel[T], qs, cands [][]T, view *quant.View) []KernelRow {
	pairs := len(cands)
	perQ := pairs / len(qs)
	out := make([]float32, pairs)
	offs := make([]int32, len(qs)+1)
	for i := range qs {
		offs[i+1] = offs[i] + int32(perQ)
	}

	pairRate := measureKernel(pairs, minTime, func() {
		for i, q := range qs {
			for j, c := range cands[i*perQ : (i+1)*perQ] {
				out[i*perQ+j] = kern.Fn(q, c)
			}
		}
		kernelSink += out[0]
	})
	manyRate := measureKernel(pairs, minTime, func() {
		for i, q := range qs {
			kern.EvalMany(q, cands[i*perQ:(i+1)*perQ], nil, out[i*perQ:(i+1)*perQ])
		}
		kernelSink += out[0]
	})
	tileRate := measureKernel(pairs, minTime, func() {
		kern.EvalTile(qs, offs, cands, nil, out)
		kernelSink += out[0]
	})
	var scratch []uint8
	quantRate := measureKernel(pairs, minTime, func() {
		for i, q := range qs {
			code, _ := quant.Encode(view, q, &scratch)
			for j := 0; j < perQ; j++ {
				out[i*perQ+j] = view.ApproxL2(code, i*perQ+j)
			}
		}
		kernelSink += out[0]
	})

	gb := func(rate float64, width int) float64 {
		return rate * float64(2*dim*width) / 1e9
	}
	return []KernelRow{
		{elem, dim, "pair", pairRate, gb(pairRate, elemBytes), 1},
		{elem, dim, "many", manyRate, gb(manyRate, elemBytes), manyRate / pairRate},
		{elem, dim, "tile", tileRate, gb(tileRate, elemBytes), tileRate / pairRate},
		{elem, dim, "quant", quantRate, gb(quantRate, 1), quantRate / pairRate},
	}
}

func randVecF32(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = rng.Float32() * 4
	}
	return v
}

func randVecU8(rng *rand.Rand, dim int) []uint8 {
	v := make([]uint8, dim)
	for i := range v {
		v[i] = uint8(rng.Intn(256))
	}
	return v
}
