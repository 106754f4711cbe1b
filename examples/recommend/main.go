// Recommend: item-to-item recommendation over cosine embeddings — the
// workload behind datasets like Last.fm in the paper's Table 1. Items
// live on the unit sphere grouped by "genre"; the k-NN graph directly
// yields "customers who liked X also liked ..." lists.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"dnnd"
)

const (
	nItems = 3000
	dim    = 32
	genres = 12
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Genre anchor directions.
	anchors := make([][]float32, genres)
	for g := range anchors {
		anchors[g] = randomUnit(rng)
	}

	// Item embeddings: anchor + noise, renormalized. Track each item's
	// genre so we can sanity-check the recommendations.
	items := make([][]float32, nItems)
	genreOf := make([]int, nItems)
	for i := range items {
		g := rng.Intn(genres)
		genreOf[i] = g
		v := make([]float32, dim)
		for j := range v {
			v[j] = anchors[g][j] + float32(rng.NormFloat64())*0.25
		}
		normalize(v)
		items[i] = v
	}

	res, err := dnnd.Build(items, dnnd.BuildOptions{K: 15, Metric: "cosine"})
	if err != nil {
		log.Fatal(err)
	}
	ix, err := dnnd.NewIndex(res.Graph, items, "cosine", 15)
	if err != nil {
		log.Fatal(err)
	}

	// Recommend items similar to a few seeds and measure how often the
	// recommendations share the seed's genre.
	const perSeed = 8
	agree, total := 0, 0
	for _, seed := range []int{0, 100, 2500} {
		recs := ix.Search(items[seed], perSeed+1, 0.15)
		fmt.Printf("because you liked item %d (genre %d):\n", seed, genreOf[seed])
		for _, r := range recs {
			if int(r.ID) == seed {
				continue // the item itself
			}
			fmt.Printf("  item %4d  (genre %2d, cosine distance %.3f)\n",
				r.ID, genreOf[r.ID], r.Dist)
			total++
			if genreOf[r.ID] == genreOf[seed] {
				agree++
			}
		}
	}
	rate := float64(agree) / float64(total)
	fmt.Printf("genre agreement: %.0f%%\n", rate*100)
	if rate < 0.8 {
		log.Fatalf("recommendations disagree with genres too often (%.0f%%)", rate*100)
	}
}

func randomUnit(rng *rand.Rand) []float32 {
	v := make([]float32, dim)
	for j := range v {
		v[j] = float32(rng.NormFloat64())
	}
	normalize(v)
	return v
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	inv := float32(1 / math.Sqrt(s))
	for j := range v {
		v[j] *= inv
	}
}
