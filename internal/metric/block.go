package metric

import "math"

// This file holds the one-query × many-candidates forms behind
// Kernel.Many. The float32 squared-L2 form scores four candidates per
// dimension sweep; squaredL2x4 is SSE2 assembly on amd64
// (block_amd64.s) and squaredL2x4Go elsewhere.
//
// Why four candidates per sweep: SquaredL2Float32 keeps four
// accumulator lanes, s_j summing the elements i ≡ j (mod 4) in index
// order. Those four scalar chains are also its throughput limit: each
// add waits on the previous one in its lane. The four lanes of ONE
// candidate fit one 128-bit register, so a sweep over four candidates
// runs four independent vector chains — one register per candidate —
// while every register lane still receives exactly its scalar
// counterpart's additions, in the same order, each product rounded
// once (separate subtract, multiply and add; never a fused
// multiply-add). The len%4 tail folds into lane 0 with scalar ops, and
// the lanes reduce as (s0+s1)+(s2+s3). So each result is bit-identical
// to SquaredL2Float32. (A NaN result is a NaN on both sides; which NaN
// payload survives an add of two NaNs follows operand order, which the
// compiler picks for the per-pair kernel and may pick differently per
// build mode.)

// SquaredL2Float32Many writes out[i] = SquaredL2Float32(q, cands[i])
// for every candidate, four candidates per sweep. A remainder of two
// or three candidates takes one more four-wide sweep with repeated
// rows standing in for the missing ones; a single leftover candidate
// goes through the per-pair kernel. nbs is ignored.
func SquaredL2Float32Many(q []float32, cands [][]float32, _ []float32, out []float32) {
	out = out[:len(cands)]
	i := 0
	for ; i+4 <= len(cands); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = sqL2x4(q, cands[i], cands[i+1], cands[i+2], cands[i+3])
	}
	switch r := cands[i:]; len(r) {
	case 1:
		out[i] = SquaredL2Float32(q, r[0])
	case 2:
		out[i], out[i+1], _, _ = sqL2x4(q, r[0], r[1], r[0], r[1])
	case 3:
		out[i], out[i+1], out[i+2], _ = sqL2x4(q, r[0], r[1], r[2], r[0])
	}
}

// L2Float32Many is SquaredL2Float32Many followed by the sqrt L2Float32
// applies, so each out[i] matches L2Float32 bitwise.
func L2Float32Many(q []float32, cands [][]float32, nbs []float32, out []float32) {
	SquaredL2Float32Many(q, cands, nbs, out)
	for i := range out[:len(cands)] {
		out[i] = float32(math.Sqrt(float64(out[i])))
	}
}

// cosineManyFloat32 is cosine's Many form: with cached candidate norms
// it is CosineManyPreNormFloat32 (one |q|² per batch), without them the
// per-pair kernel.
func cosineManyFloat32(q []float32, cands [][]float32, nbs []float32, out []float32) {
	if nbs != nil {
		CosineManyPreNormFloat32(q, cands, nbs, out)
		return
	}
	for i, c := range cands {
		out[i] = CosineFloat32(q, c)
	}
}

// sqL2x4 returns SquaredL2Float32(q, c_j) for four candidates. The
// reslices panic on a row shorter than q, as the per-pair kernel does,
// and bound what squaredL2x4 may read.
func sqL2x4(q, c0, c1, c2, c3 []float32) (float32, float32, float32, float32) {
	n := len(q)
	return squaredL2x4(q, c0[:n], c1[:n], c2[:n], c3[:n])
}

// squaredL2x4Go is the portable four-candidate sweep: sixteen scalar
// accumulators, candidate j's lane l summing the same elements in the
// same order as lane l of SquaredL2Float32(q, c_j). Every row must be
// at least len(q) long.
func squaredL2x4Go(q, c0, c1, c2, c3 []float32) (float32, float32, float32, float32) {
	n := len(q)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	var a0, a1, a2, a3 float32 // candidate 0's lanes
	var b0, b1, b2, b3 float32 // candidate 1's
	var e0, e1, e2, e3 float32 // candidate 2's
	var f0, f1, f2, f3 float32 // candidate 3's
	i := 0
	for ; i+4 <= n; i += 4 {
		q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
		d0, d1, d2, d3 := q0-c0[i], q1-c0[i+1], q2-c0[i+2], q3-c0[i+3]
		a0 += float32(d0 * d0)
		a1 += float32(d1 * d1)
		a2 += float32(d2 * d2)
		a3 += float32(d3 * d3)
		d0, d1, d2, d3 = q0-c1[i], q1-c1[i+1], q2-c1[i+2], q3-c1[i+3]
		b0 += float32(d0 * d0)
		b1 += float32(d1 * d1)
		b2 += float32(d2 * d2)
		b3 += float32(d3 * d3)
		d0, d1, d2, d3 = q0-c2[i], q1-c2[i+1], q2-c2[i+2], q3-c2[i+3]
		e0 += float32(d0 * d0)
		e1 += float32(d1 * d1)
		e2 += float32(d2 * d2)
		e3 += float32(d3 * d3)
		d0, d1, d2, d3 = q0-c3[i], q1-c3[i+1], q2-c3[i+2], q3-c3[i+3]
		f0 += float32(d0 * d0)
		f1 += float32(d1 * d1)
		f2 += float32(d2 * d2)
		f3 += float32(d3 * d3)
	}
	for ; i < n; i++ {
		qi := q[i]
		d0, d1, d2, d3 := qi-c0[i], qi-c1[i], qi-c2[i], qi-c3[i]
		a0 += float32(d0 * d0)
		b0 += float32(d1 * d1)
		e0 += float32(d2 * d2)
		f0 += float32(d3 * d3)
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3), (e0 + e1) + (e2 + e3), (f0 + f1) + (f2 + f3)
}
