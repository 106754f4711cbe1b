// Cross-process trace assembly e2e: a traced 3-shard cluster (one
// replica hard-killed mid-load) must yield per-process trace files
// that merge into one validated timeline — router spans and shard
// spans joined by trace ID, cross-process parentage proven, and the
// failover retry visible as its own span.
package router_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"dnnd"
	"dnnd/internal/obs"
	"dnnd/internal/router"
	"dnnd/internal/serve"
)

// startTracedShard is startShard with a per-process tracer attached,
// the in-test stand-in for `dnnd-serve -trace file`.
func startTracedShard(t testing.TB, dir string) (string, *serve.Server[float32], *obs.Tracer) {
	t.Helper()
	ix, refined, err := dnnd.LoadWithMeta[float32](dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 14)
	s, err := serve.New(serve.Source[float32]{
		Graph: ix.Graph(), Data: ix.Data(), Dist: ix.Dist(),
		Metric: string(ix.Metric()), K: ix.K(), Refined: refined,
	}, serve.Config{Trace: tr.Track("serve", 0)})
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
	return ln.Addr().String(), s, tr
}

func decodeTracer(t *testing.T, tr *obs.Tracer) *obs.TraceDoc {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeTrace(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestClusterTraceTimeline(t *testing.T) {
	const (
		n, dim, k = 180, 8, 8
		nShards   = 3
	)
	data := randVecs(n, dim, 47)
	queries := randVecs(64, dim, 48)
	_, man, out := buildCluster(t, data, k, nShards)

	// Shard 0 gets two replicas; its first is the kill victim. Every
	// process traces into its own tracer (= its own trace file).
	groups := make([][]string, nShards)
	var victim *serve.Server[float32]
	names := []string{"router"}
	var tracers []*obs.Tracer
	for s := 0; s < nShards; s++ {
		addr, srv, tr := startTracedShard(t, dnnd.ShardDir(out, s))
		groups[s] = []string{addr}
		names = append(names, "shard"+string(rune('0'+s)))
		tracers = append(tracers, tr)
		if s == 0 {
			victim = srv
			addr2, _, tr2 := startTracedShard(t, dnnd.ShardDir(out, s))
			groups[s] = append(groups[s], addr2)
			names = append(names, "shard0b")
			tracers = append(tracers, tr2)
		}
	}
	rtr := obs.NewTracer(1 << 15)
	rt, raddr := startRouterOver(t, man, groups, router.Config{
		// Wide probe interval: the query path, not the prober, must
		// discover the kill and fail over (see the kill test's note).
		ProbeInterval: 330 * time.Millisecond,
		ShardTimeout:  2 * time.Second,
		Trace:         rtr.Track("router", 0),
	})

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(400 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		victim.Shutdown(ctx) // hard kill: drop in-flight, close conns
	}()

	rep, err := serve.RunLoad[float32](serve.LoadConfig{
		Addr:        raddr,
		Requests:    2000,
		Concurrency: 8,
		Conns:       4,
		QPS:         1500,
		L:           8,
		Epsilon:     0.2,
		Seed:        7,
		TraceSample: 1, // every request client-rooted and sampled
	}, queries)
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if rep.Errors != 0 || rep.ByStatus["ok"] != 2000 {
		t.Fatalf("load not clean: errors=%d by_status=%v", rep.Errors, rep.ByStatus)
	}
	if rt.Metrics().Failovers.Load() == 0 && rt.Metrics().ShardErrors.Load() == 0 {
		t.Fatal("the kill left no trace; the test exercised nothing")
	}

	// The loadgen satellite: replies echoed trace IDs, so the report
	// names the slowest timelines.
	if len(rep.SlowestTraces) == 0 {
		t.Fatal("no slowest-traces in load report despite full sampling")
	}
	for _, tr := range rep.SlowestTraces {
		if len(tr.Trace) != 13 || tr.LatencyUsec <= 0 {
			t.Fatalf("malformed trace ref: %+v", tr)
		}
	}

	// Multi-process assembly: merge the router's file with all four
	// shard-process files and prove the timeline.
	docs := []*obs.TraceDoc{decodeTracer(t, rtr)}
	for _, tr := range tracers {
		docs = append(docs, decodeTracer(t, tr))
	}
	merged, stats, err := obs.MergeTraces(names, docs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Validate(); err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}
	cross, err := merged.ValidateCross()
	if err != nil {
		t.Fatalf("cross-process parentage broken: %v", err)
	}
	if cross == 0 {
		t.Fatal("no cross-process parent edges in merged timeline")
	}
	// At least one shard file must have aligned via span pairs rather
	// than the wall-clock fallback (the victim may legitimately end up
	// pair-less if everything it recorded died with its connections).
	pairTotal := 0
	for i, p := range stats.Pairs {
		if i > 0 {
			pairTotal += p
		}
	}
	if pairTotal == 0 {
		t.Fatal("no alignment pairs: shard spans never joined router spans")
	}

	spanNames := map[string]int{}
	for _, s := range merged.TracedSpans() {
		spanNames[s.Name]++
	}
	for _, want := range []string{"router.query", "router.scatter", "router.attempt", "router.merge", "serve.query"} {
		if spanNames[want] == 0 {
			t.Fatalf("merged timeline missing %q spans (have %v)", want, spanNames)
		}
	}
	// The acceptance criterion: the failover retry is visible.
	if spanNames["router.retry"] == 0 {
		t.Fatalf("no router.retry span despite %d failovers (have %v)",
			rt.Metrics().Failovers.Load(), spanNames)
	}

	// Slow-query log: populated, slowest first, with trace join keys
	// and per-shard breakdowns.
	slow := rt.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("slow-query log empty after 2000 queries")
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalMicros > slow[i-1].TotalMicros {
			t.Fatal("slow log not sorted slowest-first")
		}
	}
	if slow[0].Trace == "" || len(slow[0].Shards) == 0 {
		t.Fatalf("slow entry missing trace or shard breakdown: %+v", slow[0])
	}

	// Federated metrics: counters sum across the surviving replicas;
	// the killed one shows up as a scrape error, not a failure.
	fed := rt.ClusterMetrics(time.Second)
	if got := fed.Counters[`dnnd_serve_queries_total{status="ok"}`]; got < 2000 {
		t.Fatalf("federated ok-query counter = %d, want >= 2000", got)
	}
	h := fed.Hists["dnnd_serve_latency_usec"]
	if h == nil || h.Count() < 2000 {
		t.Fatalf("federated latency hist missing or short: %+v", h)
	}
	if len(fed.Errors) == 0 {
		t.Fatal("killed replica should surface as a scrape error")
	}
	var buf bytes.Buffer
	if err := fed.DumpText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("dnnd_cluster_replicas_scraped 3")) {
		t.Fatalf("federated text should count 3 scraped replicas:\n%s", buf.String())
	}
}
