package search

import (
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/metric"
)

func randData(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		data[i] = v
	}
	return data
}

// TestQueryInterrupt: an Interrupt that fires immediately stops the
// traversal before any vertex is expanded, returning only the seeded
// candidates with Truncated set.
func TestQueryInterrupt(t *testing.T) {
	data := randData(500, 16, 1)
	dist, err := metric.ForFloat32(metric.SquaredL2)
	if err != nil {
		t.Fatal(err)
	}
	g := brute.KNNGraph(data, 8, dist, 0)
	res, st := Query(g, data, dist, data[0], Options{
		L: 8, Epsilon: 0.2,
		Interrupt: func() bool { return true },
	}, 7)
	if st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
	if st.Visited != 0 {
		t.Fatalf("Visited = %d, want 0 under immediate interrupt", st.Visited)
	}
	if len(res) == 0 {
		t.Fatalf("interrupted query should still return its seeded candidates")
	}
	// Sanity: without the interrupt the same query expands vertices.
	_, st2 := Query(g, data, dist, data[0], Options{L: 8, Epsilon: 0.2}, 7)
	if st2.Visited == 0 {
		t.Fatalf("uninterrupted query expanded nothing")
	}
	if st2.Truncated != 0 {
		t.Fatalf("uninterrupted query reported Truncated = %d", st2.Truncated)
	}
}
