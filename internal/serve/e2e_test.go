package serve

import (
	"context"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
	"dnnd/internal/search"
)

// statValue extracts one sample value from a /metrics-style dump.
func statValue(t *testing.T, dump, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("stats line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("stats dump has no %q line:\n%s", name, dump)
	return 0
}

// TestServeEndToEnd is the acceptance pass for the serving subsystem:
// build a small index, persist and reload it through the real store
// path, serve it on a loopback listener, and drive it with the
// loadgen library — exact-match against search.Batch ground truth,
// typed overload rejections under a burst, a drain that drops zero
// admitted requests, and a live stats dump.
func TestServeEndToEnd(t *testing.T) {
	const (
		n, dim, k = 1500, 16, 10
		nq        = 256
		l         = 20
		eps       = 0.25 // exactly representable in float32: the wire
		// round-trip must not perturb the search
	)
	data := randData(n, dim, 21)
	queryVecs := randData(nq, dim, 22)

	built, err := dnnd.Build(data, dnnd.BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := dnnd.NewIndex(built.Graph, data, metric.SquaredL2, k)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := dnnd.Save(dir, ix, true); err != nil {
		t.Fatal(err)
	}
	lx, refined, err := dnnd.LoadWithMeta[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	src := Source[float32]{
		Graph:   lx.Graph(),
		Data:    lx.Data(),
		Dist:    lx.Dist(),
		Metric:  string(lx.Metric()),
		K:       lx.K(),
		Refined: refined,
	}

	const seed = 9
	truth, truthStats := search.Batch(src.Graph, src.Data, src.Dist, queryVecs,
		search.Options{L: l, Epsilon: eps, Seed: seed}, 2)

	t.Run("ExactMatchUnderConcurrency", func(t *testing.T) {
		s, err := New(src, Config{L: l, Epsilon: eps, QueueDepth: 512, BatchMax: 8, Lanes: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(ln) }()
		addr := ln.Addr().String()

		c, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello, err := c.Hello()
		if err != nil {
			t.Fatal(err)
		}
		if hello.Elem != "float32" || int(hello.N) != n || int(hello.Dim) != dim ||
			int(hello.K) != k || !hello.Refined {
			t.Fatalf("hello = %+v", hello)
		}
		if health, err := c.Health(); err != nil || !strings.HasPrefix(health, "ok ") {
			t.Fatalf("health = %q, %v", health, err)
		}

		// >= 200 in flight at once, every query vector exactly once, so
		// request i must reproduce ground-truth row i bit for bit.
		results := make([]*msg.SResult, nq)
		rep, err := RunLoad[float32](LoadConfig{
			Addr:        addr,
			Requests:    nq,
			Concurrency: 200,
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
		if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
			t.Fatalf("latency summary: %+v", rep.Latency)
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
			t.Fatalf("served dist evals %d != batch ground truth %d", servedEvals, truthStats.DistEvals)
		}

		// The stats dump must report non-zero histograms and the queue
		// gauges.
		dump, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{
			"dnnd_serve_latency_usec_count",
			"dnnd_serve_queue_wait_usec_count",
			"dnnd_serve_exec_usec_count",
			"dnnd_serve_batch_size_count",
		} {
			if v := statValue(t, dump, name); v <= 0 {
				t.Fatalf("%s = %v, want > 0", name, v)
			}
		}
		if v := statValue(t, dump, "dnnd_serve_queue_cap"); v != 512 {
			t.Fatalf("queue_cap = %v, want 512", v)
		}
		statValue(t, dump, "dnnd_serve_queue_depth")     // present
		statValue(t, dump, "dnnd_serve_queue_depth_max") // present; pinned non-zero below
		if v := statValue(t, dump, `dnnd_serve_queries_total{status="ok"}`); int(v) != nq {
			t.Fatalf("ok queries = %v, want %d", v, nq)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("serve returned %v", err)
		}
	})

	t.Run("OverloadTypedRejection", func(t *testing.T) {
		// The executors are gated shut, so a depth-1 queue must
		// overflow under the burst no matter how the scheduler
		// interleaves; the contract is that every overflow gets the
		// typed rejection immediately — never a hang — and the server
		// stays fully consistent once the gate opens.
		gate := make(chan struct{})
		s, err := New(src, Config{
			L: l, Epsilon: eps, QueueDepth: 1, BatchMax: 1, Lanes: 1, Workers: 1,
			execHook: func() { <-gate },
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		addr := ln.Addr().String()

		const burst = 64
		var wg sync.WaitGroup
		var ok, overloaded, other, transport atomic.Int64
		for g := 0; g < burst; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c, err := Dial(addr, 5*time.Second)
				if err != nil {
					transport.Add(1)
					return
				}
				defer c.Close()
				res, err := Do(c, &msg.SQuery[float32]{
					ID: uint64(g), Seed: int64(g), L: l, Epsilon: eps,
					Vec: queryVecs[g%len(queryVecs)],
				})
				if err != nil {
					transport.Add(1)
					return
				}
				switch res.Status {
				case msg.SStatusOK:
					ok.Add(1)
				case msg.SStatusOverloaded:
					overloaded.Add(1)
				default:
					other.Add(1)
				}
			}(g)
		}

		// With execution stalled, every query is either admitted (the
		// scheduler pipeline holds only a few) or rejected; wait until
		// all 64 are accounted for at admission, which requires the
		// rejections to have been immediate.
		m := s.Metrics()
		deadline := time.Now().Add(10 * time.Second)
		for m.Accepted.Load()+m.RejectedOverload.Load() < burst {
			if time.Now().After(deadline) {
				t.Fatalf("admission did not settle: accepted=%d overloaded=%d",
					m.Accepted.Load(), m.RejectedOverload.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if m.RejectedOverload.Load() == 0 {
			t.Fatalf("stalled depth-1 queue produced no overload rejections")
		}
		// The queue visibly backed up while the gate was shut.
		dump, err := func() (string, error) {
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				return "", err
			}
			defer c.Close()
			return c.Stats()
		}()
		if err != nil {
			t.Fatal(err)
		}
		if v := statValue(t, dump, "dnnd_serve_queue_depth_max"); v <= 0 {
			t.Fatalf("queue_depth_max = %v, want > 0 with gated executors", v)
		}

		close(gate) // release the admitted queries
		wg.Wait()
		if transport.Load() != 0 || other.Load() != 0 {
			t.Fatalf("burst outcomes: transport=%d unexpected-status=%d", transport.Load(), other.Load())
		}
		if ok.Load()+overloaded.Load() != burst {
			t.Fatalf("answered %d of %d", ok.Load()+overloaded.Load(), burst)
		}
		if ok.Load() == 0 || overloaded.Load() == 0 {
			t.Fatalf("burst split ok=%d overloaded=%d, want both non-zero", ok.Load(), overloaded.Load())
		}
		if m.Accepted.Load() != m.Completed.Load() {
			t.Fatalf("accepted %d != completed %d", m.Accepted.Load(), m.Completed.Load())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})

	t.Run("DrainDropsNothing", func(t *testing.T) {
		// SIGTERM-equivalent drain while requests are in flight: every
		// admitted request is answered, late arrivals get the typed
		// draining rejection, and nothing hangs.
		s, err := New(src, Config{L: l, Epsilon: eps, QueueDepth: 512, BatchMax: 4, Lanes: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- s.Serve(ln) }()
		addr := ln.Addr().String()

		const inflight = 100
		var wg sync.WaitGroup
		var replied, transport atomic.Int64
		statuses := make([]int64, 6)
		for g := 0; g < inflight; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c, err := Dial(addr, 5*time.Second)
				if err != nil {
					transport.Add(1) // dialed after the listener closed
					return
				}
				defer c.Close()
				res, err := Do(c, &msg.SQuery[float32]{
					ID: uint64(g), Seed: int64(g), L: l, Epsilon: eps,
					Vec: queryVecs[g%len(queryVecs)],
				})
				if err != nil {
					transport.Add(1)
					return
				}
				replied.Add(1)
				atomic.AddInt64(&statuses[res.Status], 1)
			}(g)
		}

		// Wait until the server has admitted work, then drain under it.
		deadline := time.Now().Add(5 * time.Second)
		for s.Metrics().Accepted.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("drain did not complete: %v", err)
		}
		wg.Wait()
		if err := <-serveErr; err != nil {
			t.Fatalf("serve returned %v", err)
		}

		m := s.Metrics()
		if m.Accepted.Load() == 0 {
			t.Fatalf("drain raced ahead of all admissions; test proved nothing")
		}
		if m.Accepted.Load() != m.Completed.Load() {
			t.Fatalf("dropped in-flight requests: accepted %d, completed %d",
				m.Accepted.Load(), m.Completed.Load())
		}
		if got := replied.Load() + transport.Load(); got != inflight {
			t.Fatalf("accounted for %d of %d requests", got, inflight)
		}
		for st, c := range statuses {
			if c > 0 && uint8(st) != msg.SStatusOK && uint8(st) != msg.SStatusDraining {
				t.Fatalf("unexpected status %s during drain", msg.SStatusName(uint8(st)))
			}
		}
		if statuses[msg.SStatusOK] == 0 {
			t.Fatalf("no query completed before the drain")
		}
	})
}
