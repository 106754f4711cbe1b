package router

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnnd/internal/knng"
	"dnnd/internal/metall"
	"dnnd/internal/msg"
	"dnnd/internal/serve"
	"dnnd/internal/wire"
)

func TestMerge(t *testing.T) {
	globals0 := []knng.ID{0, 2, 4}
	globals1 := []knng.ID{1, 3, 5}
	var all []knng.Neighbor
	all = mergeResults(all, &msg.SResult{Neighbors: []knng.Neighbor{
		{ID: 1, Dist: 0.5}, {ID: 0, Dist: 0.1}, {ID: 9, Dist: 0.01}, // 9 out of range: dropped
	}}, globals0)
	all = mergeResults(all, &msg.SResult{Neighbors: []knng.Neighbor{
		{ID: 2, Dist: 0.3}, {ID: 0, Dist: 0.5},
	}}, globals1)
	got := finishMerge(all, 3)
	// Remapped: (2,.5) (0,.1) from shard0; (5,.3) (1,.5) from shard1.
	// Sorted by (dist, id): 0@.1, 5@.3, then the .5 tie broken by ID 1<2.
	want := []knng.Neighbor{{ID: 0, Dist: 0.1}, {ID: 5, Dist: 0.3}, {ID: 1, Dist: 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	if got := finishMerge(nil, 5); len(got) != 0 {
		t.Fatalf("empty merge produced %v", got)
	}
}

func TestParseHealth(t *testing.T) {
	info, err := parseHealth("ok n=1000 dim=8 elem=float32 metric=l2 lanes=2 inflight=0 queue=0/1024 mode=frozen gen=3\n")
	if err != nil {
		t.Fatal(err)
	}
	if info.state != msg.RStateLive || info.n != 1000 || info.dim != 8 || info.elem != "float32" || info.gen != 3 {
		t.Fatalf("parsed %+v", info)
	}
	info, err = parseHealth("draining n=5 dim=2 elem=uint8 metric=l2 gen=0")
	if err != nil || info.state != msg.RStateDraining {
		t.Fatalf("draining line: %+v, %v", info, err)
	}
	if _, err := parseHealth("borked n=1"); err == nil {
		t.Fatal("unknown state accepted")
	}
	if _, err := parseHealth(""); err == nil {
		t.Fatal("empty line accepted")
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Elem: "float32", Metric: "l2", K: 2, Dim: 4, N: 6, Refined: true,
		Shards: []ShardInfo{
			{Count: 3, Globals: []knng.ID{0, 2, 4}},
			{Count: 3, Globals: []knng.ID{1, 3, 5}},
		},
	}
}

func TestManifestValidate(t *testing.T) {
	if err := testManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := map[string]func(m *Manifest){
		"unknown elem":   func(m *Manifest) { m.Elem = "float64" },
		"zero dim":       func(m *Manifest) { m.Dim = 0 },
		"no shards":      func(m *Manifest) { m.Shards = nil },
		"count mismatch": func(m *Manifest) { m.Shards[0].Count = 2 },
		"sum mismatch":   func(m *Manifest) { m.N = 7 },
		"duplicate ID":   func(m *Manifest) { m.Shards[1].Globals[0] = 0 },
		"out of range":   func(m *Manifest) { m.Shards[1].Globals[2] = 6 },
	}
	for name, mutate := range cases {
		m := testManifest()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/man"
	m := testManifest()
	if err := SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}

	// Corrupt the stored bytes (truncate mid-table): load must fail,
	// never serve through a damaged ID map.
	mgr, err := metall.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mgr.Get(ManifestObject)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Put(ManifestObject, raw[:len(raw)-5]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("truncated manifest loaded")
	}

	// A decodable manifest whose tables are not a permutation must be
	// rejected too (Validate runs on load, not just on save).
	bad := testManifest()
	bad.Shards[1].Globals[0] = 0 // global 0 on both shards, 1 nowhere
	var w wire.Writer
	bad.Encode(&w)
	mgr, err = metall.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Put(ManifestObject, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("non-permutation manifest loaded")
	}
}

// fakeShard is a minimal wire-protocol backend for white-box scatter
// tests: health lines and a scripted query handler, no real index.
type fakeShard struct {
	ln      net.Listener
	health  atomic.Value // string
	handle  func(sid uint64) msg.SResult
	queries atomic.Int64
}

func startFake(t *testing.T, health string, handle func(sid uint64) msg.SResult) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeShard{ln: ln, handle: handle}
	f.health.Store(health)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serveConn(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeShard) addr() string { return f.ln.Addr().String() }

func (f *fakeShard) serveConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var rbuf, wbuf []byte
	var w wire.Writer
	for {
		op, payload, err := serve.ReadFrameInto(br, &rbuf)
		if err != nil {
			return
		}
		switch op {
		case msg.SOpHealth:
			wbuf = serve.AppendFrame(wbuf[:0], msg.SOpHealth, []byte(f.health.Load().(string)))
		case msg.SOpQuery:
			f.queries.Add(1)
			sid := binary.LittleEndian.Uint64(payload[:8])
			res := f.handle(sid)
			res.ID = sid
			w.Reset()
			res.Encode(&w)
			wbuf = serve.AppendFrame(wbuf[:0], msg.SOpQuery, w.Bytes())
		default:
			return
		}
		if _, err := c.Write(wbuf); err != nil {
			return
		}
	}
}

func okResult(nbs ...knng.Neighbor) func(uint64) msg.SResult {
	return func(uint64) msg.SResult {
		return msg.SResult{Status: msg.SStatusOK, DistEvals: 7, Neighbors: nbs}
	}
}

func statusResult(status uint8) func(uint64) msg.SResult {
	return func(uint64) msg.SResult { return msg.SResult{Status: status} }
}

// startRouter builds a router over the given replica groups with
// probing disabled (tests drive probeOnce by hand) and short timeouts,
// serves it on a loopback listener, and returns it with its address.
func startRouter(t *testing.T, man *Manifest, groups [][]string, cfg Config) (*Router, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 500 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 300 * time.Millisecond
	}
	rt, err := New(man, groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	// Wait for the accept loop to be live before handing the router to
	// the test (a Shutdown racing Serve's listener registration would
	// leave the listener open).
	for i := 0; ; i++ {
		c, err := serve.Dial(ln.Addr().String(), 200*time.Millisecond)
		if err == nil {
			c.Close()
			break
		}
		if i > 50 {
			t.Fatalf("router never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, ln.Addr().String()
}

func queryRouter(t *testing.T, addr string, q *msg.SQuery[float32]) *msg.SResult {
	t.Helper()
	c, err := serve.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := serve.Do(c, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testQuery(id uint64) *msg.SQuery[float32] {
	return &msg.SQuery[float32]{ID: id, L: 3, Epsilon: 0.1, Vec: []float32{1, 2, 3, 4}}
}

func TestScatterMergeAndStatus(t *testing.T) {
	man := testManifest()

	t.Run("both ok merges to global IDs", func(t *testing.T) {
		s0 := startFake(t, "", okResult(knng.Neighbor{ID: 1, Dist: 0.5}, knng.Neighbor{ID: 0, Dist: 0.1}))
		s1 := startFake(t, "", okResult(knng.Neighbor{ID: 2, Dist: 0.3}))
		rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{})
		res := queryRouter(t, addr, testQuery(42))
		if res.ID != 42 || res.Status != msg.SStatusOK {
			t.Fatalf("res id=%d status=%s", res.ID, msg.SStatusName(res.Status))
		}
		want := []knng.Neighbor{{ID: 0, Dist: 0.1}, {ID: 5, Dist: 0.3}, {ID: 2, Dist: 0.5}}
		if !reflect.DeepEqual(res.Neighbors, want) {
			t.Fatalf("neighbors %v, want %v", res.Neighbors, want)
		}
		if res.DistEvals != 14 {
			t.Fatalf("DistEvals = %d, want summed 14", res.DistEvals)
		}
		// The router counts a completion after writing the reply, so the
		// client can hold the result a moment before the counter moves.
		for deadline := time.Now().Add(2 * time.Second); rt.Metrics().CompletedOK.Load() != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("CompletedOK = %d", rt.Metrics().CompletedOK.Load())
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("one shard overloaded wins over results", func(t *testing.T) {
		s0 := startFake(t, "", okResult(knng.Neighbor{ID: 0, Dist: 0.1}))
		s1 := startFake(t, "", statusResult(msg.SStatusOverloaded))
		_, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{})
		res := queryRouter(t, addr, testQuery(1))
		if res.Status != msg.SStatusOverloaded || len(res.Neighbors) != 0 {
			t.Fatalf("status=%s neighbors=%v", msg.SStatusName(res.Status), res.Neighbors)
		}
	})

	t.Run("one shard dead yields partial", func(t *testing.T) {
		s0 := startFake(t, "", okResult(knng.Neighbor{ID: 0, Dist: 0.1}))
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {deadAddr}}, Config{})
		res := queryRouter(t, addr, testQuery(2))
		if res.Status != msg.SStatusPartial {
			t.Fatalf("status = %s, want partial", msg.SStatusName(res.Status))
		}
		want := []knng.Neighbor{{ID: 0, Dist: 0.1}}
		if !reflect.DeepEqual(res.Neighbors, want) {
			t.Fatalf("neighbors %v, want %v", res.Neighbors, want)
		}
		if rt.Metrics().ShardErrors.Load() == 0 {
			t.Fatal("dead replica recorded no shard error")
		}
	})

	t.Run("all shards dead yields unavailable", func(t *testing.T) {
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		_, addr := startRouter(t, man, [][]string{{deadAddr}, {deadAddr}}, Config{})
		res := queryRouter(t, addr, testQuery(3))
		if res.Status != msg.SStatusUnavailable {
			t.Fatalf("status = %s, want unavailable", msg.SStatusName(res.Status))
		}
	})

	t.Run("all replicas draining yields draining", func(t *testing.T) {
		s0 := startFake(t, "", statusResult(msg.SStatusDraining))
		s1 := startFake(t, "", statusResult(msg.SStatusDraining))
		rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{})
		res := queryRouter(t, addr, testQuery(4))
		if res.Status != msg.SStatusDraining {
			t.Fatalf("status = %s, want draining", msg.SStatusName(res.Status))
		}
		if st := rt.shards[0].replicas[0].curState(); st != msg.RStateDraining {
			t.Fatalf("replica state = %s, want draining", msg.RStateName(st))
		}
	})

	t.Run("malformed queries rejected before scatter", func(t *testing.T) {
		s0 := startFake(t, "", okResult())
		s1 := startFake(t, "", okResult())
		rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{})
		// Wrong dimensionality.
		res := queryRouter(t, addr, &msg.SQuery[float32]{ID: 9, L: 2, Vec: []float32{1, 2}})
		if res.Status != msg.SStatusBadRequest {
			t.Fatalf("wrong-dim status = %s", msg.SStatusName(res.Status))
		}
		// L beyond the global point count.
		res = queryRouter(t, addr, &msg.SQuery[float32]{ID: 10, L: 100, Vec: []float32{1, 2, 3, 4}})
		if res.Status != msg.SStatusBadRequest {
			t.Fatalf("huge-L status = %s", msg.SStatusName(res.Status))
		}
		if n := s0.queries.Load() + s1.queries.Load(); n != 0 {
			t.Fatalf("%d sub-queries escaped for malformed input", n)
		}
		if got := rt.Metrics().RejectedBad.Load(); got != 2 {
			t.Fatalf("RejectedBad = %d", got)
		}
	})
}

func TestFailover(t *testing.T) {
	man := &Manifest{
		Elem: "float32", Metric: "l2", K: 2, Dim: 4, N: 3, Refined: true,
		Shards: []ShardInfo{{Count: 3, Globals: []knng.ID{0, 1, 2}}},
	}

	t.Run("dead first replica fails over", func(t *testing.T) {
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		ok := startFake(t, "", okResult(knng.Neighbor{ID: 1, Dist: 0.2}))
		rt, addr := startRouter(t, man, [][]string{{deadAddr, ok.addr()}}, Config{})
		// Pin the round-robin so attempt 1 is the dead replica; run a
		// few queries so at least one starts there regardless.
		for i := uint64(0); i < 4; i++ {
			res := queryRouter(t, addr, testQuery(100+i))
			if res.Status != msg.SStatusOK {
				t.Fatalf("query %d status = %s", i, msg.SStatusName(res.Status))
			}
		}
		if rt.Metrics().Failovers.Load() == 0 {
			t.Fatal("no failover recorded")
		}
		if st := rt.shards[0].replicas[0].curState(); st != msg.RStateDown {
			t.Fatalf("dead replica state = %s, want down", msg.RStateName(st))
		}
		// Once marked down, new queries go straight to the live sibling:
		// no further failovers accumulate.
		before := rt.Metrics().Failovers.Load()
		for i := uint64(0); i < 4; i++ {
			queryRouter(t, addr, testQuery(200+i))
		}
		if after := rt.Metrics().Failovers.Load(); after != before {
			t.Fatalf("failovers kept accruing after demotion: %d -> %d", before, after)
		}
	})

	t.Run("draining replica fails over and leaves rotation", func(t *testing.T) {
		draining := startFake(t, "", statusResult(msg.SStatusDraining))
		ok := startFake(t, "", okResult(knng.Neighbor{ID: 0, Dist: 0.2}))
		rt, addr := startRouter(t, man, [][]string{{draining.addr(), ok.addr()}}, Config{})
		for i := uint64(0); i < 4; i++ {
			res := queryRouter(t, addr, testQuery(300+i))
			if res.Status != msg.SStatusOK {
				t.Fatalf("query %d status = %s", i, msg.SStatusName(res.Status))
			}
		}
		if st := rt.shards[0].replicas[0].curState(); st != msg.RStateDraining {
			t.Fatalf("replica state = %s, want draining", msg.RStateName(st))
		}
		drained := draining.queries.Load()
		for i := uint64(0); i < 4; i++ {
			queryRouter(t, addr, testQuery(400+i))
		}
		if got := draining.queries.Load(); got != drained {
			t.Fatalf("draining replica still receiving queries: %d -> %d", drained, got)
		}
	})

	t.Run("hung replica demoted by watchdog", func(t *testing.T) {
		block := make(chan struct{})
		defer close(block)
		hung := startFake(t, "", func(uint64) msg.SResult {
			<-block
			return msg.SResult{Status: msg.SStatusOK}
		})
		ok := startFake(t, "", okResult(knng.Neighbor{ID: 2, Dist: 0.4}))
		rt, addr := startRouter(t, man, [][]string{{hung.addr(), ok.addr()}},
			Config{ShardTimeout: 200 * time.Millisecond})
		for i := uint64(0); i < 2; i++ {
			res := queryRouter(t, addr, testQuery(500+i))
			if res.Status != msg.SStatusOK {
				t.Fatalf("query %d status = %s", i, msg.SStatusName(res.Status))
			}
		}
		if rt.Metrics().ShardSlow.Load() == 0 {
			t.Fatal("watchdog never fired")
		}
		if st := rt.shards[0].replicas[0].curState(); st != msg.RStateDown {
			t.Fatalf("hung replica state = %s, want down", msg.RStateName(st))
		}
	})
}

func TestProbeTransitions(t *testing.T) {
	man := &Manifest{
		Elem: "float32", Metric: "l2", K: 2, Dim: 4, N: 3, Refined: true,
		Shards: []ShardInfo{{Count: 3, Globals: []knng.ID{0, 1, 2}}},
	}
	f := startFake(t, "ok n=3 dim=4 elem=float32 metric=l2 gen=7\n", okResult())
	rt, err := New(man, [][]string{{f.addr()}}, Config{ProbeInterval: -1, DialTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rp := rt.shards[0].replicas[0]

	rt.probeOnce(rp)
	if st := rp.curState(); st != msg.RStateLive {
		t.Fatalf("state after ok probe = %s", msg.RStateName(st))
	}
	if g := rp.gen.Load(); g != 7 {
		t.Fatalf("gen = %d, want 7", g)
	}

	f.health.Store("draining n=3 dim=4 elem=float32 metric=l2 gen=7\n")
	rt.probeOnce(rp)
	if st := rp.curState(); st != msg.RStateDraining {
		t.Fatalf("state after draining probe = %s", msg.RStateName(st))
	}

	// A replica serving the wrong store shape is broken, not healthy.
	f.health.Store("ok n=999 dim=4 elem=float32 metric=l2 gen=7\n")
	rt.probeOnce(rp)
	if st := rp.curState(); st != msg.RStateDown {
		t.Fatalf("state after mismatched probe = %s", msg.RStateName(st))
	}
	if rt.Metrics().ProbeMismatches.Load() != 1 {
		t.Fatal("mismatch not counted")
	}

	f.health.Store("ok n=3 dim=4 elem=float32 metric=l2 gen=8\n")
	rt.probeOnce(rp)
	if st := rp.curState(); st != msg.RStateLive {
		t.Fatalf("state after recovery probe = %s", msg.RStateName(st))
	}

	f.ln.Close()
	rt.probeOnce(rp)
	if st := rp.curState(); st != msg.RStateDown {
		t.Fatalf("state after dead probe = %s", msg.RStateName(st))
	}
}

func TestControlOps(t *testing.T) {
	man := testManifest()
	s0 := startFake(t, "", okResult())
	s1 := startFake(t, "", okResult())
	rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{L: 7, Epsilon: 0.25})

	c, err := serve.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if h.Elem != "float32" || h.N != 6 || h.Dim != 4 || h.K != 2 || !h.Refined ||
		h.DefaultL != 7 || h.DefaultEpsilon != 0.25 {
		t.Fatalf("hello = %+v", h)
	}

	line, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ok ") || !strings.Contains(line, "mode=router") ||
		!strings.Contains(line, "n=6") {
		t.Fatalf("health line %q", line)
	}

	topo, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Shards) != 2 || topo.Shards[0].Count != 3 ||
		topo.Shards[0].Replicas[0].Addr != s0.addr() {
		t.Fatalf("topology = %+v", topo)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "dnnd_router_accepted_total") ||
		!strings.Contains(stats, "dnnd_router_replica_state") {
		t.Fatalf("stats dump missing router series:\n%s", stats)
	}

	// Mutations are read-only-rejected at the front door.
	up, err := c.Delete([]knng.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	if up.Status != msg.SStatusReadOnly {
		t.Fatalf("delete status = %s, want read_only", msg.SStatusName(up.Status))
	}
	_ = rt
}

func TestRouterDrain(t *testing.T) {
	man := testManifest()
	s0 := startFake(t, "", okResult())
	s1 := startFake(t, "", okResult())
	rt, addr := startRouter(t, man, [][]string{{s0.addr()}, {s1.addr()}}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Dial(addr, 200*time.Millisecond); err == nil {
		t.Fatal("router still accepting after shutdown")
	}
}

// TestShutdownBeforeServe: the router shares the serve server's
// acceptor, so a Shutdown that completes before Serve was handed its
// listener must likewise end the accept loop instead of leaking it.
func TestShutdownBeforeServe(t *testing.T) {
	// Probing is off and no query is sent, so the replicas are never dialed.
	rt, err := New(testManifest(), [][]string{{"127.0.0.1:1"}, {"127.0.0.1:1"}}, Config{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown returned %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still accepting 2s after Shutdown completed")
	}
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener left open after Serve returned")
	}
}
