package metric

import "math"

// Naive reference kernels, retained verbatim from the implementations
// that predate the unrolled hot-path versions. The property tests in
// metric_prop_test.go pin the optimized kernels to these (bit-identical
// for integer arithmetic, bounded-ulp for reassociated float sums), and
// the benchmarks in metric_bench_test.go report both so the speedup is
// visible.

func refSquaredL2Float32(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func refDotFloat32(a, b []float32) float32 {
	var dot float32
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot
}

func refCosineFloat32(a, b []float32) float32 {
	var dot, na, nb float32
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(na)*float64(nb)))
}

func refInnerProductFloat32(a, b []float32) float32 {
	return -refDotFloat32(a, b)
}

func refSquaredL2Uint8(a, b []uint8) float32 {
	var s int64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		s += d * d
	}
	return float32(s)
}

func refHammingUint8(a, b []uint8) float32 {
	var n int
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return float32(n)
}
