package serve

import (
	"context"
	"net"
	"testing"
	"time"

	"dnnd/internal/metric/quant"
	"dnnd/internal/msg"
	"dnnd/internal/search"
)

// TestServeQuantPath pins the quantized serving path end to end: with
// Source.Quant set, served results must match search.BatchQuant bit
// for bit at the same seed, and the approx-eval counter must surface
// in the stats dump.
func TestServeQuantPath(t *testing.T) {
	const (
		nq   = 64
		l    = 10
		eps  = 0.25
		seed = 9
	)
	src := testSource(t, 800, 8, 8)
	dim := len(src.Data[0])
	src.Quant = quant.NewViewFloat32(src.Data, dim)
	queryVecs := randData(nq, dim, 77)

	truth, truthStats := search.BatchQuant(src.Graph, src.Data, src.Dist, src.Quant,
		queryVecs, search.Options{L: l, Epsilon: eps, Seed: seed}, 2)
	if truthStats.ApproxEvals == 0 {
		t.Fatal("ground-truth batch recorded no approximate evaluations")
	}

	s, err := New(src, Config{L: l, Epsilon: eps, QueueDepth: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	results := make([]*msg.SResult, nq)
	rep, err := RunLoad[float32](LoadConfig{
		Addr:        ln.Addr().String(),
		Requests:    nq,
		Concurrency: 16,
		L:           l,
		Epsilon:     eps,
		Seed:        seed,
		DialTimeout: 10 * time.Second,
		Collect:     func(i int, res *msg.SResult) { results[i] = res },
	}, queryVecs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ByStatus["ok"] != nq {
		t.Fatalf("load report: errors=%d by_status=%v", rep.Errors, rep.ByStatus)
	}
	var servedEvals int64
	for i, res := range results {
		if res == nil {
			t.Fatalf("request %d has no collected result", i)
		}
		want := truth[i]
		if len(res.Neighbors) != len(want) {
			t.Fatalf("query %d: %d neighbors, ground truth %d", i, len(res.Neighbors), len(want))
		}
		for j := range want {
			if res.Neighbors[j].ID != want[j].ID || res.Neighbors[j].Dist != want[j].Dist {
				t.Fatalf("query %d neighbor %d: got (%d, %v), want (%d, %v)",
					i, j, res.Neighbors[j].ID, res.Neighbors[j].Dist, want[j].ID, want[j].Dist)
			}
		}
		servedEvals += res.DistEvals
	}
	if servedEvals != truthStats.DistEvals {
		t.Fatalf("served exact evals %d != ground truth %d", servedEvals, truthStats.DistEvals)
	}
	if got := s.Metrics().ApproxEvals.Load(); got != truthStats.ApproxEvals {
		t.Fatalf("server approx evals %d != ground truth %d", got, truthStats.ApproxEvals)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}
