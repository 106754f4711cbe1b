package brute

import (
	"math/rand"
	"reflect"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

func randData(rng *rand.Rand, n, dim int) [][]float32 {
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

func TestKNNGraphOnALine(t *testing.T) {
	// Points at x = 0, 1, 2, ..., 9: neighbors are obvious.
	data := make([][]float32, 10)
	for i := range data {
		data[i] = []float32{float32(i)}
	}
	g := KNNGraph(data, 2, metric.L2Float32, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Point 0's two nearest are 1 and 2.
	if g.Neighbors[0][0].ID != 1 || g.Neighbors[0][1].ID != 2 {
		t.Errorf("neighbors of 0: %v", g.Neighbors[0])
	}
	// Point 5's nearest two are 4 and 6 (in some order; both dist 1).
	ids := map[knng.ID]bool{g.Neighbors[5][0].ID: true, g.Neighbors[5][1].ID: true}
	if !ids[4] || !ids[6] {
		t.Errorf("neighbors of 5: %v", g.Neighbors[5])
	}
}

func TestKNNGraphExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randData(rng, 40, 4)
	g := KNNGraph(data, 5, metric.SquaredL2Float32, 2)
	for v, ns := range g.Neighbors {
		for _, e := range ns {
			if e.ID == knng.ID(v) {
				t.Fatalf("vertex %d lists itself", v)
			}
		}
		if len(ns) != 5 {
			t.Fatalf("vertex %d has %d neighbors", v, len(ns))
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randData(rng, 60, 8)
	serial := KNNGraph(data, 4, metric.L2Float32, 1)
	parallel := KNNGraph(data, 4, metric.L2Float32, 4)
	if !serial.Equal(parallel) {
		t.Fatal("parallel result differs from serial")
	}
}

func TestQueryKNN(t *testing.T) {
	data := [][]float32{{0}, {1}, {2}, {10}}
	queries := [][]float32{{0.4}, {9}}
	res := QueryKNN(data, queries, 2, metric.L2Float32, 1)
	if res[0][0].ID != 0 || res[0][1].ID != 1 {
		t.Errorf("query 0 result: %v", res[0])
	}
	if res[1][0].ID != 3 || res[1][1].ID != 2 {
		t.Errorf("query 1 result: %v", res[1])
	}
	ids := TruthIDs(res)
	if ids[0][0] != 0 || ids[1][0] != 3 {
		t.Errorf("TruthIDs = %v", ids)
	}
}

func TestQueryKNNUint8(t *testing.T) {
	data := [][]uint8{{0, 0}, {10, 10}, {200, 200}}
	res := QueryKNN(data, [][]uint8{{9, 9}}, 1, metric.SquaredL2Uint8, 1)
	if res[0][0].ID != 1 {
		t.Errorf("uint8 query result: %v", res[0])
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	hits := make([]bool, 3)
	parallelFor(3, 8, func(i int) { hits[i] = true }) // workers > n
	for i, h := range hits {
		if !h {
			t.Errorf("index %d not visited", i)
		}
	}
	parallelFor(0, 4, func(i int) { t.Error("body called for n=0") })
}

// rowByRow is the loop scan replaced: one distance call per row, each
// applied before the next is computed.
func rowByRow(q []float32, data [][]float32, skip, k int, dist metric.Func[float32]) []knng.Neighbor {
	l := knng.NewNeighborList(k)
	for u := range data {
		if u == skip {
			continue
		}
		if d := dist(q, data[u]); d < l.FarthestDist() {
			l.Update(knng.ID(u), d, false)
		}
	}
	return l.Sorted()
}

// Block scoring must leave ground truth bit-identical — IDs, distances
// and order — to the row-by-row loop, across row counts that leave
// every remainder of a block and of a four-candidate sweep.
func TestBlockScanMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []metric.Kind{metric.L2, metric.SquaredL2, metric.Cosine} {
		dist, err := metric.ForFloat32(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 5, 63, 64, 65, 130} {
			data := randData(rng, n, 1+rng.Intn(20))
			queries := randData(rng, 4, len(data[0]))
			k := 1 + rng.Intn(8)
			res := QueryKNN(data, queries, k, dist, 2)
			for i, q := range queries {
				if want := rowByRow(q, data, -1, k, dist); !reflect.DeepEqual(res[i], want) {
					t.Fatalf("%s n=%d query %d: block %v, row-by-row %v", kind, n, i, res[i], want)
				}
			}
			g := KNNGraph(data, k, dist, 2)
			for v := range data {
				if want := rowByRow(data[v], data, v, k, dist); !reflect.DeepEqual(g.Neighbors[v], want) {
					t.Fatalf("%s n=%d vertex %d: block %v, row-by-row %v", kind, n, v, g.Neighbors[v], want)
				}
			}
		}
	}
}
