// Command dnnd-construct builds an approximate k-NN graph with
// distributed NN-Descent and persists it (graph + dataset + metadata)
// into a Metall-style datastore, mirroring the paper's construction
// executable. Refinement (Section 4.5) is left to dnnd-optimize.
//
// Input is either a named synthetic preset (-preset) or a vector file
// (-base, .fvecs/.bvecs/.ivecs by extension with -metric).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dnnd"
	"dnnd/internal/bootstrap"
	"dnnd/internal/core"
	"dnnd/internal/dataset"
	"dnnd/internal/metric"
	"dnnd/internal/obs"
	"dnnd/internal/vecio"
)

var (
	tcpRank   = flag.Int("tcp-rank", -1, "this process's rank for multi-process TCP construction")
	tcpAddrs  = flag.String("tcp-addrs", "", "comma-separated rank addresses (host:port per rank) for TCP construction")
	traceOut  = flag.String("trace", "", "write the build's span timeline to this file (Perfetto-loadable JSON)")
	debugAddr = flag.String("debug-addr", "", "serve pprof + /metrics + /trace on this address while building")
)

func main() {
	var (
		preset      = flag.String("preset", "", "synthetic dataset preset (e.g. deep, bigann)")
		base        = flag.String("base", "", "base vector file (.fvecs/.bvecs/.ivecs)")
		metricName  = flag.String("metric", "", "distance metric for -base input (l2, cosine, jaccard, ...)")
		n           = flag.Int("n", 0, "points to generate for -preset (0 = preset default)")
		k           = flag.Int("k", 10, "neighbors per vertex")
		ranks       = flag.Int("ranks", 4, "simulated distributed ranks")
		storeDir    = flag.String("store", "", "datastore directory (required)")
		seed        = flag.Int64("seed", 1, "random seed")
		batch       = flag.Int64("batch", 0, "communication batch size (0 = default 2^18)")
		unoptimized = flag.Bool("unoptimized", false, "disable the Sec 4.3 communication savings")
		workers     = flag.Int("workers", 0, "distance-eval worker goroutines per rank (0 = GOMAXPROCS/ranks); any value yields the same graph")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}

	opts := dnnd.BuildOptions{
		K:           *k,
		Ranks:       *ranks,
		Seed:        *seed,
		BatchSize:   *batch,
		Unoptimized: *unoptimized,
		Workers:     *workers,
		SkipRefine:  true, // dnnd-optimize applies Section 4.5
	}

	switch {
	case *preset != "":
		p, err := dataset.ByName(*preset)
		if err != nil {
			fatal(err)
		}
		d := dataset.Generate(p, *n, *seed)
		opts.Metric = p.Metric
		switch p.Elem {
		case dataset.ElemFloat32:
			construct(d.F32, opts, *storeDir)
		case dataset.ElemUint8:
			construct(d.U8, opts, *storeDir)
		default:
			construct(d.U32, opts, *storeDir)
		}
	case *base != "":
		if *metricName == "" {
			fatal(fmt.Errorf("-metric is required with -base"))
		}
		opts.Metric = dnnd.MetricKind(*metricName)
		switch {
		case strings.HasSuffix(*base, ".fvecs"):
			data, err := vecio.ReadFvecsFile(*base)
			if err != nil {
				fatal(err)
			}
			construct(data, opts, *storeDir)
		case strings.HasSuffix(*base, ".bvecs"):
			data, err := vecio.ReadBvecsFile(*base)
			if err != nil {
				fatal(err)
			}
			construct(data, opts, *storeDir)
		case strings.HasSuffix(*base, ".ivecs"):
			data, err := vecio.ReadIvecsFile(*base)
			if err != nil {
				fatal(err)
			}
			construct(data, opts, *storeDir)
		default:
			fatal(fmt.Errorf("unrecognized vector file extension: %s", *base))
		}
	default:
		fatal(fmt.Errorf("one of -preset or -base is required"))
	}
}

// setupObs wires the opt-in observability flags: a tracer when -trace
// or -debug-addr asks for one, a metrics registry, and the debug
// listener. The returned finish writes the trace file after the build.
func setupObs() (tr *dnnd.Tracer, reg *dnnd.Registry, finish func()) {
	if *traceOut != "" || *debugAddr != "" {
		tr = dnnd.NewTracer()
	}
	reg = dnnd.NewRegistry()
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		var err error
		dbg, err = obs.ServeDebug(*debugAddr, reg, tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dnnd-construct: debug listener on http://%s (pprof, /metrics, /trace)\n", dbg.Addr())
	}
	return tr, reg, func() {
		if *traceOut != "" {
			if err := tr.WriteFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("dnnd-construct: trace written to %s\n", *traceOut)
		}
		if dbg != nil {
			dbg.Close()
		}
	}
}

func construct[T dnnd.Scalar](data [][]T, opts dnnd.BuildOptions, storeDir string) {
	if *tcpAddrs != "" {
		constructTCP(data, opts, storeDir, *tcpRank, bootstrap.ParseAddrs(*tcpAddrs))
		return
	}
	var finish func()
	opts.Tracer, opts.Metrics, finish = setupObs()
	start := time.Now()
	res, err := dnnd.Build(data, opts)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	finish()
	ix, err := dnnd.NewIndex(res.Graph, data, res.Metric, res.K)
	if err != nil {
		fatal(err)
	}
	if err := dnnd.Save(storeDir, ix, false); err != nil {
		fatal(err)
	}
	fmt.Printf("dnnd-construct: N=%d k=%d ranks=%d iters=%d distEvals=%d msgs=%d (%.1f MiB) in %s -> %s\n",
		len(data), opts.K, opts.Ranks, res.Iters, res.DistEvals,
		res.Messages, float64(res.MessageBytes)/(1<<20), wall.Round(time.Millisecond), storeDir)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-construct: %v\n", err)
	os.Exit(1)
}

// constructTCP builds the graph as one rank of a multi-process TCP
// world: run the same command with the same flags on every host,
// varying only -tcp-rank. Rank 0 gathers the graph and writes the
// datastore.
func constructTCP[T dnnd.Scalar](data [][]T, opts dnnd.BuildOptions, storeDir string, rank int, addrs []string) {
	dist, err := metric.For[T](opts.Metric)
	if err != nil {
		fatal(err)
	}
	// Dial validates the rank, connects the mesh, and binds this
	// goroutine as the rank's owner for the whole process.
	c, err := bootstrap.Dial(rank, addrs)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	// Each TCP process traces its own rank's track; the per-process
	// trace files can be concatenated in Perfetto for a global view.
	tracer, reg, finishObs := setupObs()
	if tracer != nil {
		c.SetTrace(tracer.Track(fmt.Sprintf("rank %d", rank), rank))
	}
	c.PublishMetrics(reg)
	defer finishObs()

	cfg := core.DefaultConfig(opts.K)
	cfg.Seed = opts.Seed
	if opts.BatchSize > 0 {
		cfg.BatchSize = opts.BatchSize
	}
	if opts.Unoptimized {
		cfg.Protocol = core.Unoptimized()
	}
	cfg.Workers = opts.Workers
	cfg.Optimize = false // dnnd-optimize applies Section 4.5

	start := time.Now()
	shard := core.Partition(data, rank, len(addrs))
	res, err := core.Build(c, shard, dist, cfg)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	st := c.Stats()
	fmt.Printf("dnnd-construct[tcp rank %d/%d]: owns %d points, sent %d msgs (%.1f MiB), %d barriers, %s\n",
		rank, len(addrs), shard.Len(), st.SentMsgs, float64(st.SentBytes)/(1<<20), st.Barriers,
		wall.Round(time.Millisecond))

	if rank == 0 {
		ix, err := dnnd.NewIndex(res.Graph, data, opts.Metric, opts.K)
		if err != nil {
			fatal(err)
		}
		if err := dnnd.Save(storeDir, ix, false); err != nil {
			fatal(err)
		}
		fmt.Printf("dnnd-construct[tcp rank 0]: N=%d k=%d iters=%d saved -> %s\n",
			len(data), opts.K, res.Iters, storeDir)
	}
	// Build ends with a global barrier (the gather), so peers may exit
	// now; only rank 0 still has local work (writing the store).
}
