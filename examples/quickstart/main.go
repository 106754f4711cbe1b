// Quickstart: build an approximate k-NN graph over a small synthetic
// dataset and run a few queries through the public API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dnnd"
)

func main() {
	// A toy dataset: 2000 points in 16 dimensions, mildly clustered.
	rng := rand.New(rand.NewSource(42))
	data := make([][]float32, 2000)
	for i := range data {
		base := float32(rng.Intn(5)) * 2
		v := make([]float32, 16)
		for j := range v {
			v[j] = base + float32(rng.NormFloat64())
		}
		data[i] = v
	}

	// Build the k-NN graph with NN-Descent, in process. "sql2" (squared
	// Euclidean) gives the same neighbors as L2.
	res, err := dnnd.Build(data, dnnd.BuildOptions{
		K:      10,
		Metric: "sql2",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built k-NNG: %d vertices, %d NN-Descent rounds, %d distance evals, %d messages\n",
		res.Graph.NumVertices(), res.Iters, res.DistEvals, res.Messages)

	// Wrap the graph in a query index.
	ix, err := dnnd.NewIndex(res.Graph, data, res.Metric, res.K)
	if err != nil {
		log.Fatal(err)
	}

	// Query with a perturbed dataset point; its source should be the
	// nearest neighbor.
	q := make([]float32, 16)
	copy(q, data[123])
	q[0] += 0.01

	neighbors := ix.Search(q, 5, 0.1)
	fmt.Println("5 nearest neighbors of a point near #123:")
	for rank, n := range neighbors {
		fmt.Printf("  %d. point %d at distance %.4f\n", rank+1, n.ID, n.Dist)
	}
	if neighbors[0].ID != 123 {
		log.Fatalf("expected point 123 first, got %d", neighbors[0].ID)
	}
	fmt.Println("ok: the perturbed source point is the top hit")
}
