package metric

// useAVX selects the AVX sweeps of block_amd64.s. It is set once at
// start-up from CPUID; an amd64 host without AVX runs the portable
// sweeps every other architecture runs. The tests clear it to cover
// that path on AVX hosts.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves its state.
func cpuHasAVX() bool

// squaredL2x8 is the eight-candidate sweep: four YMM chains under AVX.
// The reslices panic on a row shorter than q and bound what the
// assembly, which reads only the rows' data pointers, may read.
func squaredL2x8(q []float32, c *[8][]float32, out *[8]float32) {
	if useAVX {
		for _, r := range c {
			_ = r[:len(q)]
		}
		squaredL2x8AVX(q, c, out)
		return
	}
	squaredL2x8Go(q, c, out)
}

// squaredL2x4 is the four-candidate sweep: two YMM chains under AVX.
func squaredL2x4(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32) {
	if useAVX {
		n := len(q)
		return squaredL2x4AVX(q, c0[:n], c1[:n], c2[:n], c3[:n])
	}
	return squaredL2x4Go(q, c0, c1, c2, c3)
}

// squaredL2x1 is the one-candidate sweep: one XMM chain under AVX, the
// per-pair kernel without it.
func squaredL2x1(q, c []float32) float32 {
	if useAVX {
		return squaredL2x1AVX(q, c[:len(q)])
	}
	return SquaredL2Float32(q, c)
}

//go:noescape
func squaredL2x8AVX(q []float32, c *[8][]float32, out *[8]float32)

//go:noescape
func squaredL2x4AVX(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32)

//go:noescape
func squaredL2x1AVX(q, c []float32) float32
