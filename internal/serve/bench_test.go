package serve

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
)

// benchServer starts a server over a small in-memory index on a
// loopback listener and returns its address plus a stopper.
func benchServer(b *testing.B, cfg Config) (string, func()) {
	b.Helper()
	s, err := New(testSource(b, 2000, 16, 10), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
}

// BenchmarkServeRoundTrip measures one synchronous query round trip
// over loopback TCP (protocol + scheduling + search), the per-request
// floor of the serving stack.
func BenchmarkServeRoundTrip(b *testing.B) {
	addr, stop := benchServer(b, Config{L: 10, Epsilon: 0.1})
	defer stop()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	queries := randData(64, 16, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := msg.SQuery[float32]{ID: uint64(i), Seed: int64(i), Vec: queries[i%len(queries)]}
		res, err := Do(c, &q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != msg.SStatusOK {
			b.Fatalf("status %s", msg.SStatusName(res.Status))
		}
	}
}

// BenchmarkServeClosedLoop8 measures sustained closed-loop throughput
// with 8 concurrent clients, the configuration results/serve.md
// records.
func BenchmarkServeClosedLoop8(b *testing.B) {
	addr, stop := benchServer(b, Config{L: 10, Epsilon: 0.1})
	defer stop()
	queries := randData(256, 16, 19)
	b.ResetTimer()
	rep, err := RunLoad[float32](LoadConfig{
		Addr: addr, Requests: b.N, Concurrency: 8, Seed: 1,
	}, queries)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.Errors != 0 {
		b.Fatalf("transport errors: %d", rep.Errors)
	}
	b.ReportMetric(rep.QPS, "qps")
	b.ReportMetric(rep.Latency.P50, "p50-usec")
	b.ReportMetric(rep.Latency.P99, "p99-usec")
}

// BenchmarkIngestRefine measures the mutable-index online path end to
// end: ingest a +10% delta over the wire in batches, then Flush —
// which runs the incremental refinement (dnnd.Refresh warm-started
// from the prior graph) and publishes the new snapshot with an atomic
// swap. Each iteration starts from a freshly rebuilt base server so
// iterations are identical; setup is excluded from the timer. The
// refine-evals metric is the incremental build's distance-evaluation
// count — compare it against a cold rebuild's in results/incr.md.
func BenchmarkIngestRefine(b *testing.B) {
	const n, delta, dim, k, batch = 2000, 200, 16, 10, 50
	base := randData(n, dim, 23)
	extra := randData(delta, dim, 24)
	bopt := dnnd.BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 3}
	built, err := dnnd.Build(base, bopt)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := metric.ForFloat32(metric.SquaredL2)
	if err != nil {
		b.Fatal(err)
	}
	var refineEvals atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Source[float32]{
			Graph:  built.Graph,
			Data:   base,
			Dist:   dist,
			Metric: string(metric.SquaredL2),
			K:      k,
		}, Config{L: 10})
		if err != nil {
			b.Fatal(err)
		}
		err = s.EnableMutation(MutableConfig[float32]{
			RefineEvery: 1 << 20, // only Flush refines: the timer sees exactly one build
			Refine: func(data [][]float32, prior *knng.Graph, dead *knng.TombSet) (*knng.Graph, error) {
				res, err := dnnd.Refresh(data, prior, dead, bopt)
				if err != nil {
					return nil, err
				}
				refineEvals.Add(res.DistEvals)
				return res.Graph, nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go s.Serve(ln)
		c, err := Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		for off := 0; off < delta; off += batch {
			rep, err := Ingest(c, extra[off:off+batch])
			if err != nil {
				b.Fatal(err)
			}
			if rep.Status != msg.SStatusOK {
				b.Fatalf("ingest status %s", msg.SStatusName(rep.Status))
			}
		}
		rep, err := c.Flush()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Status != msg.SStatusOK || rep.Gen != 1 {
			b.Fatalf("flush status %s gen %d", msg.SStatusName(rep.Status), rep.Gen)
		}

		b.StopTimer()
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Shutdown(ctx)
		cancel()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(delta)*float64(b.N)/b.Elapsed().Seconds(), "vecs/sec")
	b.ReportMetric(float64(refineEvals.Load())/float64(b.N), "refine-evals")
}

// BenchmarkServeWorkers is the serve-scaling axis: closed-loop qps at
// 1, 2, and 4 workers (concurrent searches), driven over pipelined
// connections so the generator — not connection count — sets the
// offered concurrency. On a multi-core host qps should rise with the
// worker count up to the core count; past it, extra workers only add
// the latency of the queueing the extra offered load implies.
func BenchmarkServeWorkers(b *testing.B) {
	queries := randData(256, 16, 19)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			addr, stop := benchServer(b, Config{
				L: 10, Epsilon: 0.1, Workers: workers, QueueDepth: 4 * workers * 16,
			})
			defer stop()
			b.ResetTimer()
			rep, err := RunLoad[float32](LoadConfig{
				Addr: addr, Requests: b.N, Concurrency: 4 * workers, Conns: workers, Seed: 1,
			}, queries)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if rep.Errors != 0 {
				b.Fatalf("transport errors: %d", rep.Errors)
			}
			b.ReportMetric(rep.QPS, "qps")
			b.ReportMetric(rep.Latency.P50, "p50-usec")
			b.ReportMetric(rep.Latency.P99, "p99-usec")
		})
	}
}
