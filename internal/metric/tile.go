package metric

import "dnnd/internal/wire"

// This file holds the tiled (many-queries × many-candidates) side of
// the kernel subsystem: the float32 ManyMany forms. The design rule: a
// tiled kernel may reorder which PAIR it visits when — that is where
// the cache blocking lives — but must never restructure the
// accumulation WITHIN a pair, so float32 kernels keep the per-pair lane
// structure documented in metric.go.

// SquaredL2Float32ManyMany is the tiled squared-L2 kernel over float32:
// each query's segment is one SquaredL2Float32Many call.
func SquaredL2Float32ManyMany(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, SquaredL2Float32Many)
}

// L2Float32ManyMany is SquaredL2Float32ManyMany with L2Float32's sqrt,
// segment by segment through L2Float32Many.
func L2Float32ManyMany(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, L2Float32Many)
}

// cosineManyManyFloat32 tiles the cosine kernel: each segment is one
// cosineManyFloat32 call (one |q|² per query when norms are cached).
func cosineManyManyFloat32(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, cosineManyFloat32)
}

// eachSegment runs a one-query form over every non-empty segment of a
// tile (see Kernel.ManyMany for the offs/nbs layout).
func eachSegment[T wire.Scalar](qs [][]T, offs []int32, cands [][]T, nbs []float32, out []float32, many func(q []T, cands [][]T, nbs []float32, out []float32)) {
	for i, q := range qs {
		lo, hi := offs[i], offs[i+1]
		if lo == hi {
			continue
		}
		var seg []float32
		if nbs != nil {
			seg = nbs[lo:hi]
		}
		many(q, cands[lo:hi], seg, out[lo:hi])
	}
}
