package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/knng"
	"dnnd/internal/metric"
	"dnnd/internal/msg"
)

// mutableFixture builds a base index, a server over it, and a Refine
// hook backed by the real incremental build (dnnd.Refresh), then
// serves it on a loopback listener. Returned shutdown must be called.
// Builds run single-rank: multi-rank builds vary run to run with
// message-arrival order, and the determinism tests compare two
// independently constructed fixtures bit for bit.
func mutableFixture(t *testing.T, n, dim, k int, cfg Config, mcfg MutableConfig[float32]) (*Server[float32], *Client, func()) {
	t.Helper()
	data := randData(n, dim, 31)
	built, err := dnnd.Build(data, dnnd.BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := Source[float32]{
		Graph:  built.Graph,
		Data:   data,
		Dist:   metric.SquaredL2Float32,
		Metric: string(metric.SquaredL2),
		K:      k,
	}
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mcfg.Refine == nil {
		mcfg.Refine = func(data [][]float32, prior *knng.Graph, dead *knng.TombSet) (*knng.Graph, error) {
			res, err := dnnd.Refresh(data, prior, dead,
				dnnd.BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 3})
			if err != nil {
				return nil, err
			}
			return res.Graph, nil
		}
	}
	if err := s.EnableMutation(mcfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() {
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve returned %v", err)
		}
	}
	return s, c, shutdown
}

// TestMutableIngestFlushDelete is the mutation-path acceptance test:
// ingested points are absent until a flush publishes a refined
// snapshot, then findable as their own exact nearest neighbor; deleted
// points disappear from results immediately (before any refinement)
// and stay gone after the next publish.
func TestMutableIngestFlushDelete(t *testing.T) {
	const n, dim, k, l = 600, 8, 8, 24
	s, c, shutdown := mutableFixture(t, n, dim, k, Config{L: l, Epsilon: 0.25}, MutableConfig[float32]{
		RefineEvery: 1 << 20, // only explicit flushes publish
	})
	defer shutdown()

	extra := randData(64, dim, 77)
	up, err := Ingest(c, extra)
	if err != nil {
		t.Fatal(err)
	}
	if up.Status != msg.SStatusOK || up.First != n || up.Count != uint32(len(extra)) || up.Gen != 0 {
		t.Fatalf("ingest reply: %+v", up)
	}

	// Pre-flush: the pending rows are not searchable; self-queries must
	// not return IDs >= n.
	for i, vec := range extra[:8] {
		res, err := Do(c, &msg.SQuery[float32]{ID: uint64(i), Seed: int64(i), L: l, Vec: vec})
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res.Neighbors {
			if int(nb.ID) >= n {
				t.Fatalf("pre-flush query %d returned un-published ID %d", i, nb.ID)
			}
		}
	}
	if hello, err := c.Hello(); err != nil || int(hello.N) != n {
		t.Fatalf("pre-flush hello N = %d, %v; want %d", hello.N, err, n)
	}

	up, err = c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if up.Status != msg.SStatusOK || up.Gen != 1 {
		t.Fatalf("flush reply: %+v", up)
	}
	if hello, err := c.Hello(); err != nil || int(hello.N) != n+len(extra) {
		t.Fatalf("post-flush hello N = %d, %v; want %d", hello.N, err, n+len(extra))
	}

	// Post-flush: every ingested point is its own exact nearest
	// neighbor at distance 0.
	for i, vec := range extra {
		res, err := Do(c, &msg.SQuery[float32]{ID: uint64(i), Seed: int64(i), L: l, Vec: vec})
		if err != nil {
			t.Fatal(err)
		}
		wantID := knng.ID(n + i)
		if res.Status != msg.SStatusOK || len(res.Neighbors) == 0 ||
			res.Neighbors[0].ID != wantID || res.Neighbors[0].Dist != 0 {
			t.Fatalf("post-flush self query %d: status=%s neighbors=%v",
				i, msg.SStatusName(res.Status), res.Neighbors)
		}
	}

	// Delete a mix of base and ingested points...
	dead := []knng.ID{3, 9, knng.ID(n + 5)}
	up, err = c.Delete(dead)
	if err != nil {
		t.Fatal(err)
	}
	if up.Status != msg.SStatusOK || up.Count != uint32(len(dead)) {
		t.Fatalf("delete reply: %+v", up)
	}
	// ...re-deleting is idempotent (Count 0)...
	if up, err = c.Delete(dead); err != nil || up.Count != 0 {
		t.Fatalf("re-delete reply: %+v, %v", up, err)
	}
	// ...and the dead are gone IMMEDIATELY, without any refinement:
	// self-querying a dead point's own vector must not return it.
	checkDead := func(stage string) {
		t.Helper()
		for _, id := range dead {
			var vec []float32
			if int(id) < n {
				vec = s.src.Data[id]
			} else {
				vec = extra[int(id)-n]
			}
			res, err := Do(c, &msg.SQuery[float32]{ID: uint64(id), Seed: 1, L: l, Vec: vec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != msg.SStatusOK || len(res.Neighbors) == 0 {
				t.Fatalf("%s: dead self query %d: status=%s n=%d",
					stage, id, msg.SStatusName(res.Status), len(res.Neighbors))
			}
			for _, nb := range res.Neighbors {
				if nb.ID == id {
					t.Fatalf("%s: deleted ID %d returned as a result", stage, id)
				}
			}
		}
	}
	checkDead("pre-refine")

	// After the repair refinement the dead stay gone.
	if up, err = c.Flush(); err != nil || up.Status != msg.SStatusOK || up.Gen != 2 {
		t.Fatalf("repair flush reply: %+v, %v", up, err)
	}
	checkDead("post-refine")

	// A no-op flush publishes nothing new.
	if up, err = c.Flush(); err != nil || up.Gen != 2 {
		t.Fatalf("no-op flush reply: %+v, %v", up, err)
	}

	dump, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if v := statValue(t, dump, "dnnd_serve_ingested_total"); int(v) != len(extra) {
		t.Fatalf("ingested_total = %v, want %d", v, len(extra))
	}
	if v := statValue(t, dump, "dnnd_serve_tombstoned_total"); int(v) != len(dead) {
		t.Fatalf("tombstoned_total = %v, want %d", v, len(dead))
	}
	if v := statValue(t, dump, "dnnd_serve_refines_total"); int(v) != 2 {
		t.Fatalf("refines_total = %v, want 2", v)
	}
	if v := statValue(t, dump, "dnnd_serve_generation"); int(v) != 2 {
		t.Fatalf("generation = %v, want 2", v)
	}
	if v := statValue(t, dump, "dnnd_serve_pending_delta"); int(v) != 0 {
		t.Fatalf("pending_delta = %v, want 0", v)
	}
	if health, err := c.Health(); err != nil {
		t.Fatal(err)
	} else if want := "mode=mutable gen=2"; !containsStr(health, want) {
		t.Fatalf("health = %q, want it to contain %q", health, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFrozenServerRejectsMutations: a server without EnableMutation
// answers every mutation op with the typed read_only status.
func TestFrozenServerRejectsMutations(t *testing.T) {
	src := testSource(t, 60, 4, 4)
	s, err := New(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if up, err := Ingest(c, [][]float32{{1, 2, 3, 4}}); err != nil || up.Status != msg.SStatusReadOnly {
		t.Fatalf("frozen ingest: %+v, %v", up, err)
	}
	if up, err := c.Delete([]knng.ID{1}); err != nil || up.Status != msg.SStatusReadOnly {
		t.Fatalf("frozen delete: %+v, %v", up, err)
	}
	if up, err := c.Flush(); err != nil || up.Status != msg.SStatusReadOnly {
		t.Fatalf("frozen flush: %+v, %v", up, err)
	}
	if s.Metrics().RejectedReadOnly.Load() != 3 {
		t.Fatalf("RejectedReadOnly = %d", s.Metrics().RejectedReadOnly.Load())
	}
	// Queries still work.
	if res, err := Do(c, &msg.SQuery[float32]{ID: 1, L: 4, Vec: src.Data[0]}); err != nil ||
		res.Status != msg.SStatusOK {
		t.Fatalf("frozen query: %+v, %v", res, err)
	}
}

// TestSnapshotSwapUnderConcurrentQueries hammers the query path while
// the refiner publishes generation after generation. Queries must
// never block on a swap, never error, and never see a torn graph:
// every reply is OK, every returned ID is a committed point (within
// the final dataset, never a deleted one), and every distance matches
// an exact recomputation against the immutable rows.
func TestSnapshotSwapUnderConcurrentQueries(t *testing.T) {
	const n, dim, k, l = 500, 8, 8, 16
	const rounds, perRound = 4, 48
	s, c, shutdown := mutableFixture(t, n, dim, k,
		Config{L: l, Epsilon: 0.25, Workers: 4},
		MutableConfig[float32]{RefineEvery: 1 << 20})
	defer shutdown()

	queries := randData(64, dim, 41)
	extra := randData(rounds*perRound, dim, 42)
	all := append(append([][]float32(nil), s.src.Data...), extra...)
	// One base point is deleted before any querying starts: it must
	// never appear in any reply, in any generation.
	const deadID = knng.ID(7)
	if up, err := c.Delete([]knng.ID{deadID}); err != nil || up.Count != 1 {
		t.Fatalf("delete: %+v, %v", up, err)
	}

	stop := make(chan struct{})
	var qerr atomic.Value
	var queriesRun atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qc, err := Dial(c.sc.c.RemoteAddr().String(), 5*time.Second)
			if err != nil {
				qerr.Store(fmt.Errorf("dial: %v", err))
				return
			}
			defer qc.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qv := queries[(g*31+i)%len(queries)]
				res, err := Do(qc, &msg.SQuery[float32]{
					ID: uint64(i), Seed: int64(g*1000 + i), L: l, Vec: qv,
				})
				if err != nil {
					qerr.Store(fmt.Errorf("worker %d query %d: %v", g, i, err))
					return
				}
				if res.Status != msg.SStatusOK {
					qerr.Store(fmt.Errorf("worker %d query %d: status %s", g, i, msg.SStatusName(res.Status)))
					return
				}
				for _, nb := range res.Neighbors {
					if int(nb.ID) >= len(all) {
						qerr.Store(fmt.Errorf("worker %d: ID %d beyond any committed snapshot", g, nb.ID))
						return
					}
					if nb.ID == deadID {
						qerr.Store(fmt.Errorf("worker %d: deleted ID %d returned", g, nb.ID))
						return
					}
					if want := metric.SquaredL2Float32(qv, all[nb.ID]); nb.Dist != want {
						qerr.Store(fmt.Errorf("worker %d: torn result: dist(%d) = %v, want %v",
							g, nb.ID, nb.Dist, want))
						return
					}
				}
				queriesRun.Add(1)
			}
		}(g)
	}

	// Mutator: ingest + flush rounds, each publishing a new snapshot
	// while the query workers run.
	for r := 0; r < rounds; r++ {
		if up, err := Ingest(c, extra[r*perRound:(r+1)*perRound]); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("round %d ingest: %+v, %v", r, up, err)
		}
		up, err := c.Flush()
		if err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("round %d flush: %+v, %v", r, up, err)
		}
		if up.Gen != uint64(r+1) {
			t.Fatalf("round %d published gen %d", r, up.Gen)
		}
	}
	close(stop)
	wg.Wait()
	if err, ok := qerr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	if queriesRun.Load() == 0 {
		t.Fatal("no queries ran concurrently with the swaps; test proved nothing")
	}
	if got := s.Metrics().Refines.Load(); got != rounds {
		t.Fatalf("refines = %d, want %d", got, rounds)
	}
}

// TestLoadgenMutateMode drives the mixed read/write load generator
// against a mutable server and checks the per-op-class report: every
// class ran, every op succeeded, and the server's counters agree with
// the generator's op plan.
func TestLoadgenMutateMode(t *testing.T) {
	const n, dim, k, l = 500, 8, 8, 12
	s, c, shutdown := mutableFixture(t, n, dim, k,
		Config{L: l, Epsilon: 0.25, Workers: 4},
		MutableConfig[float32]{RefineEvery: 64})
	defer shutdown()
	addr := c.sc.c.RemoteAddr().String()

	queries := randData(64, dim, 61)
	const requests = 400
	rep, err := RunLoad[float32](LoadConfig{
		Addr:           addr,
		Requests:       requests,
		Concurrency:    8,
		L:              l,
		Epsilon:        0.25,
		Seed:           5,
		DialTimeout:    5 * time.Second,
		Mutate:         true,
		IngestFraction: 0.10,
		DeleteFraction: 0.05,
		IngestBatch:    3,
		FlushEvery:     100,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("transport errors: %d", rep.Errors)
	}
	total := 0
	for _, name := range []string{"query", "ingest", "delete", "flush"} {
		op := rep.PerOp[name]
		if op == nil || op.Count == 0 {
			t.Fatalf("op class %q missing from report: %+v", name, rep.PerOp)
		}
		if op.ByStatus["ok"] != op.Count {
			t.Fatalf("op class %q: by_status %v over %d ops", name, op.ByStatus, op.Count)
		}
		if op.Latency.P50 <= 0 || op.Latency.Max < op.Latency.P50 {
			t.Fatalf("op class %q latency summary: %+v", name, op.Latency)
		}
		total += op.Count
	}
	if total != requests {
		t.Fatalf("per-op counts sum to %d, want %d", total, requests)
	}
	if rep.PerOp["flush"].Count != requests/100 {
		t.Fatalf("flush count = %d, want %d", rep.PerOp["flush"].Count, requests/100)
	}

	m := s.Metrics()
	if got := m.IngestOps.Load(); got != int64(rep.PerOp["ingest"].Count) {
		t.Fatalf("server saw %d ingest ops, generator sent %d", got, rep.PerOp["ingest"].Count)
	}
	if got := m.Ingested.Load(); got != int64(rep.PerOp["ingest"].Count*3) {
		t.Fatalf("server ingested %d vectors, want %d", got, rep.PerOp["ingest"].Count*3)
	}
	if got := m.DeleteOps.Load(); got != int64(rep.PerOp["delete"].Count) {
		t.Fatalf("server saw %d delete ops, generator sent %d", got, rep.PerOp["delete"].Count)
	}
	// Mutations ride the shared connections beside pipelined queries:
	// eight workers on two connections run the same kind of mix cleanly.
	shared, err := RunLoad[float32](LoadConfig{
		Addr: addr, Requests: 200, Concurrency: 8, Conns: 2, Seed: 6,
		DialTimeout: 5 * time.Second, Mutate: true,
		IngestFraction: 0.10, DeleteFraction: 0.05, IngestBatch: 3, FlushEvery: 50,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Errors != 0 || len(shared.PerConn) != 2 {
		t.Fatalf("shared-connection mutate run: errors=%d (%v) per_conn=%d",
			shared.Errors, shared.ErrorKinds, len(shared.PerConn))
	}
	for name, op := range shared.PerOp {
		if op.ByStatus["ok"] != op.Count {
			t.Fatalf("shared-connection op class %q: by_status %v over %d ops", name, op.ByStatus, op.Count)
		}
	}
}

// TestMutableDeterministicAcrossWorkers: the same mutation + flush
// sequence on servers with different worker counts must serve
// bit-identical answers — the incremental build and the search are
// deterministic, so parallelism must not leak into results.
func TestMutableDeterministicAcrossWorkers(t *testing.T) {
	const n, dim, k, l = 400, 8, 8, 16
	queries := randData(32, dim, 51)
	extra := randData(50, dim, 52)

	run := func(cfg Config) [][]knng.Neighbor {
		s, c, shutdown := mutableFixture(t, n, dim, k, cfg, MutableConfig[float32]{RefineEvery: 1 << 20})
		defer shutdown()
		_ = s
		if up, err := Ingest(c, extra); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("ingest: %+v, %v", up, err)
		}
		if up, err := c.Delete([]knng.ID{2, 11, knng.ID(n + 3)}); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("delete: %+v, %v", up, err)
		}
		if up, err := c.Flush(); err != nil || up.Status != msg.SStatusOK || up.Gen != 1 {
			t.Fatalf("flush: %+v, %v", up, err)
		}
		out := make([][]knng.Neighbor, len(queries))
		for i, qv := range queries {
			res, err := Do(c, &msg.SQuery[float32]{ID: uint64(i), Seed: int64(i), L: l, Vec: qv})
			if err != nil || res.Status != msg.SStatusOK {
				t.Fatalf("query %d: %+v, %v", i, res, err)
			}
			out[i] = res.Neighbors
		}
		return out
	}

	narrow := run(Config{L: l, Epsilon: 0.25, Workers: 1})
	wide := run(Config{L: l, Epsilon: 0.25, Workers: 12})
	for i := range narrow {
		if len(narrow[i]) != len(wide[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(narrow[i]), len(wide[i]))
		}
		for j := range narrow[i] {
			if narrow[i][j] != wide[i][j] {
				t.Fatalf("query %d result %d: %+v vs %+v", i, j, narrow[i][j], wide[i][j])
			}
		}
	}
}

// TestRefineFailureRetries: a failed refinement must not strand the
// pending delta until the next mutation — the refiner re-kicks itself
// with backoff and publishes once Refine recovers, with no further
// traffic arriving.
func TestRefineFailureRetries(t *testing.T) {
	const n, dim, k, l = 200, 8, 8, 12
	const failures = 2
	var calls atomic.Int32
	mcfg := MutableConfig[float32]{
		RefineEvery: 1, // the single ingest below kicks the refiner
		Refine: func(data [][]float32, prior *knng.Graph, dead *knng.TombSet) (*knng.Graph, error) {
			if calls.Add(1) <= failures {
				return nil, fmt.Errorf("injected refine failure")
			}
			res, err := dnnd.Refresh(data, prior, dead,
				dnnd.BuildOptions{K: k, Metric: metric.SquaredL2, Ranks: 1, Seed: 3})
			if err != nil {
				return nil, err
			}
			return res.Graph, nil
		},
	}
	s, c, shutdown := mutableFixture(t, n, dim, k, Config{L: l, Epsilon: 0.25}, mcfg)
	defer shutdown()

	if up, err := Ingest(c, randData(1, dim, 99)); err != nil || up.Status != msg.SStatusOK {
		t.Fatalf("ingest: %+v, %v", up, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.cur.Load().gen != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("refiner never recovered: %d refine calls, gen %d",
				calls.Load(), s.cur.Load().gen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Metrics().RefineErrors.Load(); got != failures {
		t.Fatalf("RefineErrors = %d, want %d", got, failures)
	}
	if got := s.Metrics().Refines.Load(); got != 1 {
		t.Fatalf("Refines = %d, want 1", got)
	}
	// The published snapshot covers the ingested row.
	if snap := s.cur.Load(); len(snap.data) != n+1 {
		t.Fatalf("published snapshot covers %d rows, want %d", len(snap.data), n+1)
	}
}

// TestPublishHookAndErrors: Publish sees every published snapshot
// (its generation, and a graph and dataset covering the ingested rows)
// before the flush that forced it returns, and a failing Publish is
// counted in MutLogErrors without failing the flush.
func TestPublishHookAndErrors(t *testing.T) {
	const n, dim, k, l = 200, 8, 8, 12
	type published struct {
		gen      uint64
		vertices int
		rows     int
	}
	var (
		pubMu sync.Mutex
		pubs  []published
	)
	mcfg := MutableConfig[float32]{
		RefineEvery: 1 << 20, // only flushes refine
		Publish: func(g *knng.Graph, data [][]float32, _ *knng.TombSet, gen uint64) error {
			pubMu.Lock()
			defer pubMu.Unlock()
			pubs = append(pubs, published{gen, g.NumVertices(), len(data)})
			if len(pubs) == 1 {
				return errors.New("disk full")
			}
			return nil
		},
	}
	s, c, shutdown := mutableFixture(t, n, dim, k, Config{L: l, Epsilon: 0.25, Workers: 2}, mcfg)
	defer shutdown()

	for round, batch := range [][][]float32{randData(3, dim, 7), randData(5, dim, 8)} {
		if up, err := Ingest(c, batch); err != nil || up.Status != msg.SStatusOK {
			t.Fatalf("round %d ingest: %+v, %v", round, up, err)
		}
		up, err := c.Flush()
		if err != nil || up.Status != msg.SStatusOK || up.Gen != uint64(round+1) {
			t.Fatalf("round %d flush: %+v, %v", round, up, err)
		}
	}
	pubMu.Lock()
	got := append([]published(nil), pubs...)
	pubMu.Unlock()
	want := []published{{1, n + 3, n + 3}, {2, n + 8, n + 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Publish calls = %+v, want %+v", got, want)
	}
	if e := s.Metrics().MutLogErrors.Load(); e != 1 {
		t.Fatalf("MutLogErrors = %d, want 1 (the first Publish failed)", e)
	}
}
