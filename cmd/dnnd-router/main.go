// Command dnnd-router is the cluster front end: it loads the shard
// manifest written by dnnd-optimize -split, connects to one or more
// dnnd-serve replicas per shard, and speaks the ordinary serve wire
// protocol to clients — a loadgen (or any other serve client) pointed
// at a router cannot tell it from a single server, except that the
// answers cover the whole split dataset. Each query is scattered to
// every shard, the per-shard top-k merged into a global top-k with
// global IDs; dead or draining replicas fail over to their siblings,
// and periodic health probes pull them out of (and back into)
// rotation. SIGTERM/SIGINT drains gracefully.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dnnd/internal/obs"
	"dnnd/internal/router"
	"dnnd/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7740", "listen address")
		manifestDir  = flag.String("manifest", "", "shard manifest datastore directory (required; written by dnnd-optimize -split under <split-out>/manifest)")
		shards       = flag.String("shards", "", "replica addresses, one group per shard: semicolons separate shards, commas separate replicas within a shard (e.g. \"h1:7741,h2:7741;h3:7741,h4:7741\"); group order follows shard order in the manifest (required)")
		l            = flag.Int("l", 10, "default neighbors per query (advertised in hello)")
		epsilon      = flag.Float64("epsilon", 0.1, "default search expansion (advertised in hello)")
		inflight     = flag.Int("inflight", 1024, "max admitted-but-unanswered queries before overload rejection")
		shardTimeout = flag.Duration("shard-timeout", 5*time.Second, "per-attempt sub-query bound when the client sets no deadline (a slower replica is demoted)")
		dialTimeout  = flag.Duration("dial-timeout", 2*time.Second, "replica dial and health-probe bound")
		probe        = flag.Duration("probe", 500*time.Millisecond, "health probe period per replica (0 < only; probing cannot be disabled from the CLI)")
		retries      = flag.Int("retries", 3, "failover attempts per shard per query beyond the first")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		debugAddr    = flag.String("debug-addr", "", "serve pprof + /metrics + /trace on this address, plus the cluster views /cluster/metrics(.json) and /debug/slowest")
		traceOut     = flag.String("trace", "", "write the router's span timeline here on shutdown (Perfetto-loadable JSON; tracecheck -merge joins it with the shards')")
		slowLog      = flag.Int("slow-log", 0, "slowest-queries ring size with per-shard breakdowns and trace IDs (0 = default 32, negative disables)")
	)
	flag.Parse()
	if *manifestDir == "" {
		fatal(fmt.Errorf("-manifest is required"))
	}
	if *shards == "" {
		fatal(fmt.Errorf("-shards is required"))
	}
	groups, err := parseShards(*shards)
	if err != nil {
		fatal(err)
	}
	man, err := router.LoadManifest(*manifestDir)
	if err != nil {
		fatal(err)
	}

	cfg := router.Config{
		L:             *l,
		Epsilon:       *epsilon,
		MaxInFlight:   *inflight,
		ShardTimeout:  *shardTimeout,
		DialTimeout:   *dialTimeout,
		ProbeInterval: *probe,
		Retries:       *retries,
		SlowLog:       *slowLog,
	}
	var tracer *obs.Tracer
	if *debugAddr != "" || *traceOut != "" {
		tracer = obs.NewTracer(0)
		cfg.Trace = tracer.Track("router", 0)
	}
	rt, err := router.New(man, groups, cfg)
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, rt.Metrics().Registry(), tracer)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		// Cluster-scoped views: federated replica metrics (scraped live
		// per request) and the slowest-query ring with trace join keys.
		scrapeTimeout := *dialTimeout
		dbg.Handle("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rt.ClusterMetrics(scrapeTimeout).DumpText(w)
		})
		dbg.Handle("/cluster/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			rt.ClusterMetrics(scrapeTimeout).DumpJSON(w)
		})
		dbg.Handle("/debug/slowest", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rt.SlowQueries())
		})
		fmt.Printf("dnnd-router: debug listener on http://%s (pprof, /metrics, /trace, /cluster/metrics, /debug/slowest)\n", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	replicas := 0
	for _, g := range groups {
		replicas += len(g)
	}
	fmt.Printf("dnnd-router: routing %d %s points (metric=%s k=%d) across %d shards, %d replicas, on %s\n",
		man.N, man.Elem, man.Metric, man.K, len(man.Shards), replicas, ln.Addr())

	if err := serve.RunDaemon("dnnd-router", rt, ln, *drainWait, tracer, *traceOut, rt.Metrics().Dump); err != nil {
		fatal(err)
	}
}

// parseShards splits "a1,a2;b1" into [][]string{{"a1","a2"},{"b1"}}:
// one group per shard, in manifest shard order.
func parseShards(s string) ([][]string, error) {
	var groups [][]string
	for i, part := range strings.Split(s, ";") {
		var g []string
		for _, a := range strings.Split(part, ",") {
			a = strings.TrimSpace(a)
			if a != "" {
				g = append(g, a)
			}
		}
		if len(g) == 0 {
			return nil, fmt.Errorf("shard group %d has no replica addresses", i)
		}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no shard groups in -shards")
	}
	return groups, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-router: %v\n", err)
	os.Exit(1)
}
