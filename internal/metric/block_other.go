//go:build !amd64

package metric

// squaredL2x4 is the portable sweep on architectures without the SSE2
// assembly.
func squaredL2x4(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32) {
	return squaredL2x4Go(q, c0, c1, c2, c3)
}
