//go:build !amd64

package metric

// useAVX is false: this architecture has no assembly sweeps. The tests
// read it to learn which dispatches exist.
var useAVX = false

// The sweeps are the portable ones here.

func squaredL2x8(q []float32, c *[8][]float32, out *[8]float32) {
	squaredL2x8Go(q, c, out)
}

func squaredL2x4(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32) {
	return squaredL2x4Go(q, c0, c1, c2, c3)
}

func squaredL2x1(q, c []float32) float32 { return SquaredL2Float32(q, c) }
