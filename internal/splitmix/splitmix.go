// Package splitmix is the module's one pseudo-random source, the
// splitmix64 generator. It imports nothing, so every package can use it.
package splitmix

// Mix64 is the splitmix64 finalizer, a bijection of uint64 whose
// output bits each depend on every input bit.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Stream is a splitmix64 stream. Its value is its whole state, so
// Stream(s) starts one at seed s, and its output depends on s alone.
type Stream uint64

// Intn returns the stream's next number in [0, n) for n > 0, with a
// modulo bias of at most n/2^64.
func (r *Stream) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15 // 2^64 divided by the golden ratio
	return int(Mix64(uint64(*r)) % uint64(n))
}
