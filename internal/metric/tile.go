package metric

import (
	"math"

	"dnnd/internal/wire"
)

// This file holds the tiled (many-queries × many-candidates) side of
// the kernel subsystem: the ManyMany fast paths behind
// Kernel.EvalTile. The design rule, stated once here and relied on
// everywhere: a tiled kernel may reorder which PAIR it visits when —
// that is where the cache blocking lives — but must never restructure
// the accumulation WITHIN a pair. Integer kernels are exact, so any
// rewrite is automatically bit-identical; float32 kernels keep the
// per-pair lane structure documented in metric.go.

// squaredL2Uint8Pair2 evaluates one query against two candidates in a
// single dimension sweep, loading each query element once. Integer
// arithmetic makes the results exactly equal to SquaredL2Uint8 whatever
// the lane layout; the chunked int64 fold mirrors SquaredL2Uint8's
// overflow bound.
func squaredL2Uint8Pair2(q, c0, c1 []uint8) (float32, float32) {
	c0 = c0[:len(q)]
	c1 = c1[:len(q)]
	var t0, t1 int64
	for base := 0; base < len(q); base += sqUint8ChunkLen {
		end := base + sqUint8ChunkLen
		if end > len(q) {
			end = len(q)
		}
		var a0, a1, a2, a3, b0, b1, b2, b3 int32
		i := base
		for ; i+4 <= end; i += 4 {
			q0, q1, q2, q3 := int32(q[i]), int32(q[i+1]), int32(q[i+2]), int32(q[i+3])
			d0 := q0 - int32(c0[i])
			d1 := q1 - int32(c0[i+1])
			d2 := q2 - int32(c0[i+2])
			d3 := q3 - int32(c0[i+3])
			a0 += d0 * d0
			a1 += d1 * d1
			a2 += d2 * d2
			a3 += d3 * d3
			e0 := q0 - int32(c1[i])
			e1 := q1 - int32(c1[i+1])
			e2 := q2 - int32(c1[i+2])
			e3 := q3 - int32(c1[i+3])
			b0 += e0 * e0
			b1 += e1 * e1
			b2 += e2 * e2
			b3 += e3 * e3
		}
		for ; i < end; i++ {
			qi := int32(q[i])
			d := qi - int32(c0[i])
			a0 += d * d
			e := qi - int32(c1[i])
			b0 += e * e
		}
		t0 += int64((a0 + a1) + (a2 + a3))
		t1 += int64((b0 + b1) + (b2 + b3))
	}
	return float32(t0), float32(t1)
}

// pair2MaxDimUint8 is the uint8 pair-2 cutoff. The two-candidate sweep
// halves query loads but carries twice the live accumulators, and it
// only wins on narrow vectors: at larger dims the widening int32 ALU
// chain saturates the core by itself. The branch depends ONLY on the
// query's dimension, so kernel-form selection is deterministic and —
// both forms being exact — invisible in the output.
const pair2MaxDimUint8 = 64

// SquaredL2Float32ManyMany is the tiled squared-L2 kernel over float32:
// each query's segment is one SquaredL2Float32Many call, four
// candidates per dimension sweep.
func SquaredL2Float32ManyMany(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, SquaredL2Float32Many)
}

// L2Float32ManyMany is SquaredL2Float32ManyMany with L2Float32's sqrt,
// segment by segment through L2Float32Many.
func L2Float32ManyMany(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, L2Float32Many)
}

// SquaredL2Uint8ManyMany is the tiled squared-L2 kernel over uint8.
func SquaredL2Uint8ManyMany(qs [][]uint8, offs []int32, cands [][]uint8, _ []float32, out []float32) {
	for i, q := range qs {
		j, hi := int(offs[i]), int(offs[i+1])
		if len(q) > pair2MaxDimUint8 {
			for ; j < hi; j++ {
				out[j] = SquaredL2Uint8(q, cands[j])
			}
			continue
		}
		for ; j+2 <= hi; j += 2 {
			out[j], out[j+1] = squaredL2Uint8Pair2(q, cands[j], cands[j+1])
		}
		if j < hi {
			out[j] = SquaredL2Uint8(q, cands[j])
		}
	}
}

// L2Uint8ManyMany is SquaredL2Uint8ManyMany plus L2Uint8's sqrt.
func L2Uint8ManyMany(qs [][]uint8, offs []int32, cands [][]uint8, nbs []float32, out []float32) {
	SquaredL2Uint8ManyMany(qs, offs, cands, nbs, out)
	for j := range out[:offs[len(qs)]] {
		out[j] = float32(math.Sqrt(float64(out[j])))
	}
}

// cosineManyManyFloat32 tiles the cosine kernel: each segment is one
// cosineManyFloat32 call (one |q|² per query when norms are cached).
func cosineManyManyFloat32(qs [][]float32, offs []int32, cands [][]float32, nbs []float32, out []float32) {
	eachSegment(qs, offs, cands, nbs, out, cosineManyFloat32)
}

// eachSegment runs a one-query form over every non-empty segment of a
// tile (see EvalTile for the offs/nbs layout).
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
