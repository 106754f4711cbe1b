// Incremental: grow an existing k-NN graph as new data arrives — the
// workflow the paper's Section 7 sketches ("new data points may be
// added, followed by a short graph refinement phase, which will fit
// NN-Descent's iterative nature well"). Instead of rebuilding from
// scratch, the prior graph warm-starts the descent and only the new
// points trigger neighbor checks.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dnnd"
)

func main() {
	rng := rand.New(rand.NewSource(13))
	makeBatch := func(n int) [][]float32 {
		batch := make([][]float32, n)
		for i := range batch {
			base := float32(rng.Intn(10)) * 1.2
			v := make([]float32, 16)
			for j := range v {
				v[j] = base + float32(rng.NormFloat64())*0.8
			}
			batch[i] = v
		}
		return batch
	}

	opts := dnnd.BuildOptions{K: 10, Metric: "sql2", SkipRefine: true}

	// Initial build.
	data := makeBatch(3000)
	res, err := dnnd.Build(data, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial build: %d points, %d rounds, %d distance evals\n",
		len(data), res.Iters, res.DistEvals)
	initialEvals := res.DistEvals

	// Three arrival waves, each integrated by a warm-started
	// refinement instead of a rebuild.
	for wave := 1; wave <= 3; wave++ {
		extra := makeBatch(400)
		next, err := dnnd.Extend(data, extra, res.Graph, opts)
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, extra...)
		res = next
		fmt.Printf("wave %d: +%d points -> %d total, %d rounds, %d distance evals (%.0f%% of initial build)\n",
			wave, len(extra), len(data), res.Iters, res.DistEvals,
			100*float64(res.DistEvals)/float64(initialEvals))
	}

	// The freshly added points must be properly linked in.
	ix, err := dnnd.NewIndex(res.Graph, data, "sql2", 10)
	if err != nil {
		log.Fatal(err)
	}
	lastNew := len(data) - 1
	hits := ix.Search(data[lastNew], 5, 0.2)
	fmt.Printf("self-query for the newest point: top hit %d (want %d), dist %.4f\n",
		hits[0].ID, lastNew, hits[0].Dist)
	if int(hits[0].ID) != lastNew {
		log.Fatal("newest point not integrated into the graph")
	}
	fmt.Println("ok: incremental updates integrated without full rebuilds")
}
