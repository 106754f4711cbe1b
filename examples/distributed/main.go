// Distributed: run DNND over the TCP transport — each rank has its own
// isolated endpoint and all traffic crosses real localhost sockets,
// demonstrating the hand-rolled RPC layer that substitutes for
// MPI+YGM. In production each rank would be its own process on its own
// host; here three ranks share a process (bootstrap.RunLocal) but
// share no memory. As in the paper, queries run on the graph gathered
// onto rank 0.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"dnnd"
	"dnnd/internal/bootstrap"
	"dnnd/internal/core"
	"dnnd/internal/metric"
	"dnnd/internal/ygm"
)

const (
	nranks = 3
	n      = 1500
	dim    = 24
	k      = 8
)

func main() {
	// Every rank generates the same dataset deterministically and
	// keeps only its own shard (no shared memory).
	makeData := func() [][]float32 {
		rng := rand.New(rand.NewSource(5))
		data := make([][]float32, n)
		for i := range data {
			base := float32(rng.Intn(6))
			v := make([]float32, dim)
			for j := range v {
				v[j] = base + float32(rng.NormFloat64())*0.6
			}
			data[i] = v
		}
		return data
	}

	var mu sync.Mutex
	results := make([]*core.Result, nranks)
	err := bootstrap.RunLocal(nranks, func(rank int, c *ygm.Comm) error {
		data := makeData()
		shard := core.Partition(data, rank, nranks)
		cfg := core.DefaultConfig(k)
		res, err := core.Build(c, shard, metric.SquaredL2Float32, cfg)
		if err != nil {
			return err
		}
		st := c.Stats()
		fmt.Printf("rank %d: owns %d points, sent %d msgs (%.1f MiB), %d barriers\n",
			rank, shard.Len(), st.SentMsgs, float64(st.SentBytes)/(1<<20), st.Barriers)
		mu.Lock()
		results[rank] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	g := results[0].Graph // gathered on rank 0
	if g == nil {
		log.Fatal("rank 0 did not gather the graph")
	}
	if err := g.Validate(); err != nil {
		log.Fatalf("invalid graph: %v", err)
	}
	fmt.Printf("graph over TCP: %d vertices, avg degree %.1f, %d NN-Descent rounds\n",
		g.NumVertices(), g.AvgDegree(), results[0].Iters)

	// Rank 0 holds the whole graph; the dataset is regenerated here
	// exactly as every rank generated it.
	data := makeData()
	ix, err := dnnd.NewIndex(g, data, metric.SquaredL2, k)
	if err != nil {
		log.Fatal(err)
	}
	for qi, q := range data[:5] {
		if ns := ix.Search(q, 5, 0.1); ns[0].ID != dnnd.ID(qi) {
			log.Fatalf("self-query %d: top hit %d, want self", qi, ns[0].ID)
		}
	}
	fmt.Println("ok: self-queries on the gathered graph all returned themselves first")
}
