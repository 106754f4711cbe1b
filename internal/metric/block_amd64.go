package metric

// squaredL2x4 is the SSE2 four-candidate sweep (block_amd64.s), with
// the lane structure documented in block.go. Every row must be at
// least len(q) long; only the data pointers of c0..c3 are read.
//
//go:noescape
func squaredL2x4(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32)
