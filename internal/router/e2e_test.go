// End-to-end cluster tests: real shard servers built by dnnd.Split,
// a real router in front, real clients behind it. The package is
// router_test (black box) so it can import the root dnnd package —
// the root imports internal/router, not the other way around.
package router_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/msg"
	"dnnd/internal/router"
	"dnnd/internal/serve"
)

func randVecs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		out[i] = v
	}
	return out
}

// buildCluster builds one source store over data, splits it into
// nShards shard stores, and returns the full single-store index (the
// ground truth) plus the split manifest and output directory.
func buildCluster(t testing.TB, data [][]float32, k, nShards int) (*dnnd.Index[float32], *router.Manifest, string) {
	t.Helper()
	opt := dnnd.BuildOptions{K: k, Metric: "l2", Seed: 1, Ranks: 2}
	res, err := dnnd.Build(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := dnnd.NewIndex(res.Graph, data, "l2", k)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "store")
	if err := dnnd.Save(src, ix, true); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "cluster")
	man, err := dnnd.Split[float32](src, out, nShards, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix, man, out
}

// startShard serves one shard store on a loopback listener and returns
// its address plus the server (for kill/drain tests).
func startShard(t testing.TB, dir string) (string, *serve.Server[float32]) {
	t.Helper()
	ix, refined, err := dnnd.LoadWithMeta[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Source[float32]{
		Graph: ix.Graph(), Data: ix.Data(), Dist: ix.Dist(),
		Metric: string(ix.Metric()), K: ix.K(), Refined: refined,
	}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ln.Addr().String(), s
}

func startRouterOver(t testing.TB, man *router.Manifest, groups [][]string, cfg router.Config) (*router.Router, string) {
	t.Helper()
	rt, err := router.New(man, groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, ln.Addr().String()
}

// TestClusterExactMerge pins the acceptance criterion: with an epsilon
// so large the greedy search never prunes (making both the shard-local
// and single-store traversals exhaustive), the 3-shard merged top-k
// must equal the single-store search answer exactly — IDs and
// distances, for every query, at every L.
func TestClusterExactMerge(t *testing.T) {
	const (
		n, dim, k = 240, 8, 8
		nShards   = 3
		hugeEps   = 1000.0
	)
	data := randVecs(n, dim, 7)
	queries := randVecs(40, dim, 8)
	ix, man, out := buildCluster(t, data, k, nShards)

	groups := make([][]string, nShards)
	for s := 0; s < nShards; s++ {
		addr, _ := startShard(t, dnnd.ShardDir(out, s))
		groups[s] = []string{addr}
	}
	_, raddr := startRouterOver(t, man, groups, router.Config{ProbeInterval: -1})

	pc, err := serve.Dial(raddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	for _, l := range []int{4, 16, 64} {
		want, _ := ix.SearchBatch(queries, l, hugeEps, 4)
		for i, q := range queries {
			res, err := serve.Do(pc, &msg.SQuery[float32]{
				ID: uint64(1000*l + i), Seed: int64(i), L: uint32(l),
				Epsilon: hugeEps, Vec: q,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != msg.SStatusOK {
				t.Fatalf("L=%d query %d: status %s", l, i, msg.SStatusName(res.Status))
			}
			if len(res.Neighbors) != len(want[i]) {
				t.Fatalf("L=%d query %d: %d neighbors, want %d",
					l, i, len(res.Neighbors), len(want[i]))
			}
			for j, nb := range res.Neighbors {
				if nb.ID != want[i][j].ID || nb.Dist != want[i][j].Dist {
					t.Fatalf("L=%d query %d neighbor %d: got (%d, %v), want (%d, %v)",
						l, i, j, nb.ID, nb.Dist, want[i][j].ID, want[i][j].Dist)
				}
			}
		}
	}
}

// TestClusterKillReplicaUnderLoad pins the failover acceptance
// criterion: with 2 replicas per shard, hard-killing one replica in
// the middle of an open-loop load yields zero client-visible failures
// — every reply ok, no transport errors of any kind (the loadgen
// error report is the witness).
func TestClusterKillReplicaUnderLoad(t *testing.T) {
	const (
		n, dim, k = 160, 8, 8
		nShards   = 2
	)
	data := randVecs(n, dim, 17)
	queries := randVecs(64, dim, 18)
	_, man, out := buildCluster(t, data, k, nShards)

	groups := make([][]string, nShards)
	var victim *serve.Server[float32]
	for s := 0; s < nShards; s++ {
		a0, srv0 := startShard(t, dnnd.ShardDir(out, s))
		a1, _ := startShard(t, dnnd.ShardDir(out, s))
		groups[s] = []string{a0, a1}
		if s == 0 {
			victim = srv0
		}
	}
	// The probe interval is deliberately much wider than the query
	// spacing, and the kill delay is not a multiple of it: the query
	// path — not the prober — must discover the dead replica and fail
	// over. (With a 50ms interval the 400ms kill lands in phase with
	// the probe ticker, a probe fires within a millisecond of the kill
	// and quietly pulls the replica out of rotation before any query
	// touches it, and the test exercises nothing.)
	rt, raddr := startRouterOver(t, man, groups, router.Config{
		ProbeInterval: 330 * time.Millisecond,
		ShardTimeout:  2 * time.Second,
	})

	// Hard-kill one replica of shard 0 mid-load: an already-expired
	// context makes Shutdown drop in-flight work and close connections
	// immediately — the crash case, not a graceful drain.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(400 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		victim.Shutdown(ctx)
	}()

	rep, err := serve.RunLoad[float32](serve.LoadConfig{
		Addr:        raddr,
		Requests:    3000,
		Concurrency: 8,
		Conns:       4,
		QPS:         2000, // open loop: ~1.5s of load, the kill lands mid-run
		L:           8,
		Epsilon:     0.2,
		Seed:        3,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	<-killed

	if rep.Errors != 0 {
		t.Fatalf("client-visible transport errors: %d (%v)", rep.Errors, rep.ErrorKinds)
	}
	for status, cnt := range rep.ByStatus {
		if status != "ok" && cnt > 0 {
			t.Fatalf("client saw %d %q replies; want only ok (full report: %v)",
				cnt, status, rep.ByStatus)
		}
	}
	if rep.ByStatus["ok"] != 3000 {
		t.Fatalf("ok replies = %d, want 3000", rep.ByStatus["ok"])
	}
	if rt.Metrics().Failovers.Load() == 0 && rt.Metrics().ShardErrors.Load() == 0 {
		t.Fatal("the kill left no trace; the test exercised nothing")
	}

	// After a probe interval the topology must show the dead replica
	// out of rotation.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := serve.Dial(raddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := c.Topology()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if topo.Shards[0].Replicas[0].State == msg.RStateDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed replica never marked down: %+v", topo.Shards[0])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterRollingRestart pins the graceful path: draining one
// replica of a 2-replica shard under load (the rolling-restart move)
// is also invisible to clients — draining rejections are retried on
// the sibling, in-flight queries complete, nothing is dropped.
func TestClusterRollingRestart(t *testing.T) {
	const (
		n, dim, k = 120, 8, 8
		nShards   = 1
	)
	data := randVecs(n, dim, 27)
	queries := randVecs(48, dim, 28)
	_, man, out := buildCluster(t, data, k, nShards)

	a0, srv0 := startShard(t, dnnd.ShardDir(out, 0))
	a1, _ := startShard(t, dnnd.ShardDir(out, 0))
	_, raddr := startRouterOver(t, man, [][]string{{a0, a1}}, router.Config{
		ProbeInterval: 50 * time.Millisecond,
		ShardTimeout:  2 * time.Second,
	})

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		time.Sleep(300 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv0.Shutdown(ctx) // graceful: drain, finish in-flight, then close
	}()

	rep, err := serve.RunLoad[float32](serve.LoadConfig{
		Addr:        raddr,
		Requests:    2000,
		Concurrency: 8,
		Conns:       4,
		QPS:         1500,
		L:           8,
		Epsilon:     0.2,
		Seed:        5,
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	<-drained

	if rep.Errors != 0 {
		t.Fatalf("client-visible transport errors: %d (%v)", rep.Errors, rep.ErrorKinds)
	}
	if rep.ByStatus["ok"] != 2000 {
		t.Fatalf("ok replies = %d of 2000 (full report: %v)", rep.ByStatus["ok"], rep.ByStatus)
	}
}

// TestClusterHelloMatchesManifest: a loadgen pointed at the router
// shapes its queries from the router's hello exactly as it would from
// a single server's.
func TestClusterHelloMatchesManifest(t *testing.T) {
	data := randVecs(90, 4, 37)
	_, man, out := buildCluster(t, data, 4, 2)
	groups := make([][]string, 2)
	for s := 0; s < 2; s++ {
		addr, _ := startShard(t, dnnd.ShardDir(out, s))
		groups[s] = []string{addr}
	}
	_, raddr := startRouterOver(t, man, groups, router.Config{ProbeInterval: -1})
	c, err := serve.Dial(raddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if h.Elem != "float32" || int(h.N) != 90 || int(h.Dim) != 4 || int(h.K) != 4 || h.Metric != "l2" {
		t.Fatalf("hello = %+v", h)
	}
	// And the health line parses like any serve health line.
	line, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	var state string
	if _, err := fmt.Sscanf(line, "%s", &state); err != nil || state != "ok" {
		t.Fatalf("health %q", line)
	}
}
