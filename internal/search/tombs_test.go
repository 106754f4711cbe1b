package search

import (
	"math/rand"
	"testing"

	"dnnd/internal/brute"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

// TestTombstonesNeverReturned kills points near the query and checks
// that no query path — one-shot or pooled-context — ever returns
// a dead ID, while live results still come back.
func TestTombstonesNeverReturned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, dim := 500, 8
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		data[i] = v
	}
	g := brute.KNNGraph(data, 10, metric.SquaredL2Float32, 0)
	g.Optimize(10, 1.5)

	q := data[123]
	// Kill the true nearest neighbors: the hardest case, since the
	// traversal routes straight through them.
	base, _ := Query(g, data, metric.SquaredL2Float32, q, Options{L: 10}, 1)
	tombs := knng.NewTombSet(n)
	for _, e := range base[:5] {
		tombs.Kill(e.ID)
	}
	opt := Options{L: 10, Epsilon: 0.1, Tombs: tombs}

	res, _ := Query(g, data, metric.SquaredL2Float32, q, opt, 1)
	if len(res) == 0 {
		t.Fatal("no live results returned")
	}
	for _, e := range res {
		if tombs.Dead(e.ID) {
			t.Fatalf("exact query returned dead ID %d", e.ID)
		}
	}

	sc := NewContext[float32]()
	resCtx, _ := SearchCtx(sc, g, data, metric.SquaredL2Float32, q, opt, 1)
	if len(resCtx) != len(res) {
		t.Fatalf("pooled-context result count %d != %d", len(resCtx), len(res))
	}
	for i := range res {
		if resCtx[i] != res[i] {
			t.Fatalf("pooled context diverged at %d: %v vs %v", i, resCtx[i], res[i])
		}
	}
}

// TestTombstonesStillRoute builds a line graph where the only path from
// the entry region to the query's true neighbor runs through dead
// points; the traversal must step through them to find it.
func TestTombstonesStillRoute(t *testing.T) {
	n := 200
	data := make([][]float32, n)
	for i := range data {
		data[i] = []float32{float32(i)}
	}
	g := brute.KNNGraph(data, 2, metric.L2Float32, 0) // chain: i—(i±1, i±2)
	// Kill a contiguous band. The query target sits past the band, so
	// any route there crosses dead vertices.
	tombs := knng.NewTombSet(n)
	for id := 150; id < 190; id++ {
		tombs.Kill(knng.ID(id))
	}
	// Entries force the walk to start on the near side of the band.
	opt := Options{L: 3, Epsilon: 0.3, Tombs: tombs, Entries: []knng.ID{100}}
	res, _ := Query(g, data, metric.L2Float32, []float32{195.2}, opt, 3)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].ID != 195 {
		t.Fatalf("nearest = %d, want 195 (walk failed to route through dead band)", res[0].ID)
	}
	for _, e := range res {
		if tombs.Dead(e.ID) {
			t.Fatalf("dead ID %d returned", e.ID)
		}
	}
}

// TestTombSearchNoSteadyStateAllocs pins the zero-allocation contract
// of the pooled-context path with a tombstone set attached.
func TestTombSearchNoSteadyStateAllocs(t *testing.T) {
	data := lineDataset(512)
	g := brute.KNNGraph(data, 4, metric.L2Float32, 0)
	tombs := knng.NewTombSet(512)
	tombs.Kill(41)
	sc := NewContext[float32]()
	opt := Options{L: 4, Tombs: tombs}
	q := []float32{77.3}
	// Warm up the context scratch.
	SearchCtx(sc, g, data, metric.L2Float32, q, opt, 5)
	avg := testing.AllocsPerRun(100, func() {
		SearchCtx(sc, g, data, metric.L2Float32, q, opt, 5)
	})
	if avg != 0 {
		t.Fatalf("tombstone-filtered pooled search allocates %.1f/op, want 0", avg)
	}
}
