package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/msg"
	"dnnd/internal/search"
)

// TestWorkerEquivalence is the scheduler's determinism contract:
// served results are bit-identical to search.Batch ground truth at
// every worker count, because per-query seeds make the execution
// placement irrelevant. The CI race pass re-runs this with
// DNND_TEST_WORKERS forcing an extra width, so the worker machinery is
// also exercised under the race detector.
func TestWorkerEquivalence(t *testing.T) {
	widths := []int{1, 2, 4}
	if s := os.Getenv("DNND_TEST_WORKERS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad DNND_TEST_WORKERS=%q: %v", s, err)
		}
		widths = append(widths, w)
	}
	eq := newEquivalence(t)
	for _, workers := range widths {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eq.check(t, workers, 2*workers)
		})
	}
}

// TestLaneWorkerEquivalence keeps the lane x worker geometries the
// sharded scheduler was pinned at. There, only lanes ran searches
// concurrently; the worker width multiplied the closed-loop clients
// (2 x lanes x workers). Each case serves from Workers = lanes with
// those same clients, so the queue holds up to four waiting queries
// per worker where TestWorkerEquivalence holds two.
func TestLaneWorkerEquivalence(t *testing.T) {
	eq := newEquivalence(t)
	for _, lanes := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("lanes=%d,workers=%d", lanes, workers), func(t *testing.T) {
				eq.check(t, lanes, 2*lanes*workers)
			})
		}
	}
}

// equivalence is the fixture of the determinism tests: a served index,
// its queries and their search.Batch ground truth.
type equivalence struct {
	src     Source[float32]
	queries [][]float32
	truth   [][]knng.Neighbor
}

const (
	eqL    = 12
	eqEps  = 0.25
	eqSeed = 5
)

func newEquivalence(t *testing.T) *equivalence {
	src := testSource(t, 900, 12, 8)
	queries := randData(96, 12, 33)
	truth, _ := search.Batch(src.Graph, src.Data, src.Dist, queries,
		search.Options{L: eqL, Epsilon: eqEps, Seed: eqSeed}, 2)
	return &equivalence{src: src, queries: queries, truth: truth}
}

// check serves every query from a server of the given worker count to
// that many closed-loop clients and requires each reply to be
// bit-identical to the ground truth and every query to be counted.
func (eq *equivalence) check(t *testing.T, workers, clients int) {
	nq := len(eq.queries)
	s, err := New(eq.src, Config{
		L: eqL, Epsilon: eqEps, QueueDepth: 256, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	results := make([]*msg.SResult, nq)
	rep, err := RunLoad[float32](LoadConfig{
		Addr:        ln.Addr().String(),
		Requests:    nq,
		Concurrency: clients,
		L:           eqL,
		Epsilon:     eqEps,
		Seed:        eqSeed,
		DialTimeout: 5 * time.Second,
		Collect:     func(i int, res *msg.SResult) { results[i] = res },
	}, eq.queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ByStatus["ok"] != nq {
		t.Fatalf("load report: errors=%d by_status=%v", rep.Errors, rep.ByStatus)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("request %d has no result", i)
		}
		want := eq.truth[i]
		if len(res.Neighbors) != len(want) {
			t.Fatalf("query %d: %d neighbors, ground truth %d",
				i, len(res.Neighbors), len(want))
		}
		for j := range want {
			if res.Neighbors[j] != want[j] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v",
					i, j, res.Neighbors[j], want[j])
			}
		}
	}
	// A reply reaches the client just before its worker counts it; a
	// graceful drain waits for the count.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Completed.Load(); got != int64(nq) {
		t.Fatalf("completed = %d, want %d", got, nq)
	}
}

// queryAsync sends one query on its own connection and delivers the
// reply (or the transport error as a nil result) on the returned
// channel.
func queryAsync(t *testing.T, addr string, id uint64, vec []float32) <-chan *msg.SResult {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan *msg.SResult, 1)
	go func() {
		defer c.Close()
		res, _ := Do(c, &msg.SQuery[float32]{ID: id, Seed: int64(id), L: 8, Vec: vec})
		out <- res
	}()
	return out
}

// TestWorkersRunConcurrently pins what Workers means: that many query
// searches run at once. The two queries meet at a two-party rendezvous
// inside the worker, which only a server running both searches
// concurrently can pass.
func TestWorkersRunConcurrently(t *testing.T) {
	src := testSource(t, 300, 8, 8)
	var arrived atomic.Int32
	both := make(chan struct{})
	release := make(chan struct{}) // unblocks a lone worker on failure
	s, err := New(src, Config{
		Workers: 2, QueueDepth: 4,
		execHook: func() {
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-release:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	defer close(release)

	addr := ln.Addr().String()
	r1 := queryAsync(t, addr, 1, src.Data[1])
	r2 := queryAsync(t, addr, 2, src.Data[2])
	select {
	case <-both:
	case <-time.After(5 * time.Second):
		t.Fatalf("Workers=2 never ran two queries at once (%d entered the worker)", arrived.Load())
	}
	for _, r := range []<-chan *msg.SResult{r1, r2} {
		if res := <-r; res == nil || res.Status != msg.SStatusOK {
			t.Fatalf("reply = %+v, want ok", res)
		}
	}
}

// TestForcedShutdownAnswersQueued: when the drain budget expires, the
// query a worker holds still finishes, and every query left in the
// queue is answered SStatusDraining rather than dropped, so the gate
// and the in-flight gauge balance.
func TestForcedShutdownAnswersQueued(t *testing.T) {
	src := testSource(t, 300, 8, 8)
	gate := make(chan struct{})
	entered := make(chan struct{}, 3)
	s, err := New(src, Config{
		Workers: 1, QueueDepth: 4,
		execHook: func() {
			entered <- struct{}{}
			<-gate
		},
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

	held := queryAsync(t, addr, 1, src.Data[1])
	<-entered // the only worker now holds query 1
	queued := []<-chan *msg.SResult{
		queryAsync(t, addr, 2, src.Data[2]),
		queryAsync(t, addr, 3, src.Data[3]),
	}
	for deadline := time.Now().Add(5 * time.Second); s.m.Accepted.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("accepted = %d, want 3", s.m.Accepted.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	<-s.stop // the drain budget ran out and the workers are told to stop
	close(gate)

	if res := <-held; res == nil || res.ID != 1 || res.Status != msg.SStatusOK {
		t.Fatalf("held query reply = %+v, want ok", res)
	}
	for i, r := range queued {
		if res := <-r; res == nil || res.ID != uint64(i+2) || res.Status != msg.SStatusDraining {
			t.Fatalf("queued query %d reply = %+v, want draining", i+2, res)
		}
	}
	if err := <-shut; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	if got := s.m.InFlight.Load(); got != 0 {
		t.Fatalf("in flight after shutdown = %d, want 0", got)
	}
	if got := s.m.Completed.Load(); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
}

// TestPipelinedLoadEquivalence drives the same determinism contract
// through the pipelined multi-connection loadgen path: two shared
// connections carry eight workers' interleaved in-flight queries, so
// reply routing by ID, the shared write path, and the per-connection
// report all get exercised against bit-exact ground truth.
func TestPipelinedLoadEquivalence(t *testing.T) {
	const (
		n, dim, k = 900, 12, 8
		nq        = 96
		l         = 12
		eps       = 0.25
		seed      = 5
	)
	src := testSource(t, n, dim, k)
	queryVecs := randData(nq, dim, 33)
	truth, _ := search.Batch(src.Graph, src.Data, src.Dist, queryVecs,
		search.Options{L: l, Epsilon: eps, Seed: seed}, 2)

	s, err := New(src, Config{L: l, Epsilon: eps, QueueDepth: 256, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	results := make([]*msg.SResult, nq)
	rep, err := RunLoad[float32](LoadConfig{
		Addr:        ln.Addr().String(),
		Requests:    nq,
		Concurrency: 8,
		Conns:       2,
		L:           l,
		Epsilon:     eps,
		Seed:        seed,
		DialTimeout: 5 * time.Second,
		Collect:     func(i int, res *msg.SResult) { results[i] = res },
	}, queryVecs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ByStatus["ok"] != nq {
		t.Fatalf("load report: errors=%d by_status=%v", rep.Errors, rep.ByStatus)
	}
	if rep.Conns != 2 || len(rep.PerConn) != 2 {
		t.Fatalf("report conns=%d per_conn=%d, want 2 and 2", rep.Conns, len(rep.PerConn))
	}
	for ci, summ := range rep.PerConn {
		if summ.Max <= 0 {
			t.Fatalf("connection %d latency summary empty: %+v (both conns should carry traffic)", ci, summ)
		}
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("request %d has no result", i)
		}
		want := truth[i]
		if len(res.Neighbors) != len(want) {
			t.Fatalf("query %d: %d neighbors, ground truth %d", i, len(res.Neighbors), len(want))
		}
		for j := range want {
			if res.Neighbors[j] != want[j] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", i, j, res.Neighbors[j], want[j])
			}
		}
	}
}
