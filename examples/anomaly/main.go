// Anomaly: k-NN-distance anomaly detection, one of the application
// fields the paper's introduction motivates. Normal points live in
// clusters; injected outliers sit far from everything. A point's
// anomaly score is its mean distance to its k graph neighbors — the
// k-NN graph makes scoring every point one adjacency-list scan instead
// of an O(n) sweep.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"dnnd"
)

const (
	nNormal   = 4000
	nOutliers = 20
	dim       = 12
)

func main() {
	rng := rand.New(rand.NewSource(99))

	data := make([][]float32, 0, nNormal+nOutliers)
	for i := 0; i < nNormal; i++ {
		base := float32(rng.Intn(6))
		v := make([]float32, dim)
		for j := range v {
			v[j] = base + float32(rng.NormFloat64())*0.3
		}
		data = append(data, v)
	}
	outlierStart := len(data)
	for i := 0; i < nOutliers; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = 30 + rng.Float32()*40 // far outside every cluster
		}
		data = append(data, v)
	}

	res, err := dnnd.Build(data, dnnd.BuildOptions{K: 10, Metric: "sql2"})
	if err != nil {
		log.Fatal(err)
	}

	// Score every point from its own neighbor list: mean distance to
	// its k nearest. Outliers' neighbors are all far away.
	type scored struct {
		id    int
		score float64
	}
	scores := make([]scored, res.Graph.NumVertices())
	for v := range scores {
		ns := res.Graph.Neighbors[v]
		var sum float64
		for _, e := range ns {
			sum += float64(e.Dist)
		}
		scores[v] = scored{id: v, score: sum / float64(len(ns))}
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].score > scores[j].score })

	fmt.Println("top 10 anomalies (id, mean k-NN distance):")
	for _, s := range scores[:10] {
		marker := ""
		if s.id >= outlierStart {
			marker = "  <- injected outlier"
		}
		fmt.Printf("  %5d  %10.2f%s\n", s.id, s.score, marker)
	}

	// All injected outliers must rank in the top nOutliers positions.
	found := 0
	for _, s := range scores[:nOutliers] {
		if s.id >= outlierStart {
			found++
		}
	}
	fmt.Printf("injected outliers in top-%d: %d/%d\n", nOutliers, found, nOutliers)
	if found < nOutliers*9/10 {
		log.Fatalf("anomaly detection missed too many outliers: %d/%d", found, nOutliers)
	}
}
