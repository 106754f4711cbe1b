// Persist: the paper's Metall workflow — construct a k-NN graph once,
// persist it, then reattach from separate "program runs" to optimize
// and to query. Construction dominates total cost at scale, so
// persisting the result is what makes billion-scale graphs practical.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"dnnd"
)

func main() {
	dir := filepath.Join(os.TempDir(), "dnnd-persist-example")
	os.RemoveAll(dir)

	data := makeData()

	// --- run 1: construct and persist (dnnd-construct's job) --------
	res, err := dnnd.Build(data, dnnd.BuildOptions{
		K: 10, Metric: "sql2", SkipRefine: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ix, err := dnnd.NewIndex(res.Graph, data, "sql2", 10)
	if err != nil {
		log.Fatal(err)
	}
	if err := dnnd.Save(dir, ix, false); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 1: constructed (%d rounds) and saved to %s\n", res.Iters, dir)

	// --- run 2: reattach and refine (dnnd-optimize's job) -----------
	if err := dnnd.Refine[float32](dir, 1.5); err != nil {
		log.Fatal(err)
	}
	fmt.Println("run 2: reattached, merged reverse edges, pruned to k*1.5")

	// --- run 3: reattach and query (dnnd-query's job) ---------------
	loaded, refined, err := dnnd.LoadWithMeta[float32](dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 3: reloaded %d points (refined=%v, max degree %d)\n",
		loaded.Len(), refined, loaded.Graph().MaxDegree())

	q := append([]float32(nil), data[777]...)
	q[3] += 0.05
	hits := loaded.Search(q, 5, 0.1)
	fmt.Println("neighbors of a point near #777:")
	for _, h := range hits {
		fmt.Printf("  point %4d at %.4f\n", h.ID, h.Dist)
	}
	if hits[0].ID != 777 {
		log.Fatalf("expected 777 first, got %d", hits[0].ID)
	}
	fmt.Println("ok: persisted index answers correctly after two reopens")
}

func makeData() [][]float32 {
	rng := rand.New(rand.NewSource(21))
	data := make([][]float32, 2500)
	for i := range data {
		base := float32(rng.Intn(8)) * 1.5
		v := make([]float32, 20)
		for j := range v {
			v[j] = base + float32(rng.NormFloat64())*0.7
		}
		data[i] = v
	}
	return data
}
