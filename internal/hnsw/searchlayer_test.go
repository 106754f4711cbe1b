package hnsw

import (
	"math"
	"math/rand"
	"testing"

	"dnnd/internal/knng"
	"dnnd/internal/metric"
)

// perNeighborSearchLayer is searchLayer before block scoring: a fresh
// map visited set per call and one distance per neighbor, applied as it
// is computed. It is the reference searchLayer must match.
func (ix *Index[T]) perNeighborSearchLayer(q []T, ep int, epDist float32, ef, level int) []knng.Neighbor {
	visited := make(map[knng.ID]bool, ef*4)
	visited[knng.ID(ep)] = true
	results := knng.NewNeighborList(ef)
	results.Update(knng.ID(ep), epDist, false)
	var front minHeap
	front.push(knng.ID(ep), epDist)

	for front.len() > 0 {
		p, pd := front.pop()
		if results.Full() && pd > results.FarthestDist() {
			break
		}
		for _, u := range ix.links[p][level] {
			if visited[u] {
				continue
			}
			visited[u] = true
			d := ix.d(q, ix.data[u])
			if !results.Full() || d < results.FarthestDist() {
				results.Update(u, d, false)
				front.push(u, d)
			}
		}
	}
	return results.Sorted()
}

// Block scoring and the pooled visited set change how searchLayer
// computes, not what: at every insertion of a build and for every
// query, from the entry point at every level, it returns the same
// neighbors with the same distance bits and charges the same DistEvals
// as the per-neighbor loop. Both a kernel with a block form and a
// closure scored pair by pair are checked.
func TestSearchLayerMatchesPerNeighborLoop(t *testing.T) {
	sql2 := metric.Func[float32](metric.SquaredL2Float32)
	closure := func(a, b []float32) float32 { return metric.SquaredL2Float32(a, b) }
	for name, dist := range map[string]metric.Func[float32]{"block": sql2, "per-pair": closure} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			data := uniformData(rng, 700, 21)
			for i := 10; i < len(data); i += 37 {
				data[i] = data[i-1] // duplicates tie on distance
			}
			ix, err := New(dist, Config{M: 6, EfConstruction: 40, Seed: 16})
			if err != nil {
				t.Fatal(err)
			}
			check := func(q []float32, ef int) {
				t.Helper()
				for l := ix.maxLevel; l >= 0; l-- {
					ep := ix.entry
					epDist := dist(q, ix.data[ep])
					before := ix.distEvals
					got := ix.searchLayer(q, ep, epDist, ef, l)
					mid := ix.distEvals
					want := ix.perNeighborSearchLayer(q, ep, epDist, ef, l)
					if gotEvals, wantEvals := mid-before, ix.distEvals-mid; gotEvals != wantEvals {
						t.Fatalf("n=%d level %d ef %d: %d evaluations, per-neighbor loop %d", ix.Len(), l, ef, gotEvals, wantEvals)
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d level %d ef %d: %d results, per-neighbor loop %d", ix.Len(), l, ef, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
							t.Fatalf("n=%d level %d ef %d: result %d is %v, per-neighbor loop %v", ix.Len(), l, ef, i, got[i], want[i])
						}
					}
				}
			}
			for _, v := range data {
				if ix.Len() > 0 {
					check(v, ix.cfg.EfConstruction)
				}
				ix.Add(v)
			}
			for _, q := range uniformData(rng, 30, 21) {
				check(q, 10)
				check(q, 120)
			}
		})
	}
}
