// Command dnnd-serve is the online half of the build/serve split: it
// loads a datastore written by dnnd-construct/dnnd-optimize and
// answers approximate nearest-neighbor queries over TCP until
// SIGTERM/SIGINT, when it drains gracefully (in-flight queries finish,
// new ones get a typed draining rejection). See internal/serve for the
// protocol and scheduler.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"dnnd"
	"dnnd/internal/obs"
	"dnnd/internal/serve"
	"dnnd/internal/wire"
)

func main() {
	var (
		storeDir    = flag.String("store", "", "datastore directory (required)")
		addr        = flag.String("addr", "127.0.0.1:7741", "listen address")
		l           = flag.Int("l", 10, "default neighbors per query")
		epsilon     = flag.Float64("epsilon", 0.1, "default search expansion parameter")
		queue       = flag.Int("queue", 1024, "admission queue depth (overload beyond it)")
		workers     = flag.Int("workers", 0, "concurrent query searches (0 = GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 0, "default per-query deadline (0 = none)")
		maxDeadline = flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = uncapped)")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		debugAddr   = flag.String("debug-addr", "", "serve pprof + /metrics + /trace on this address")
		traceOut    = flag.String("trace", "", "write this process's span timeline here on shutdown (Perfetto-loadable JSON; tracecheck -merge joins it with the router's)")
		mutableOn   = flag.Bool("mutable", false, "serve the index online-mutable: accept ingest/delete/flush ops, refine the delta in the background, and swap snapshots atomically")
		refineEvery = flag.Int("refine-every", 256, "pending delta size that triggers a background refinement (mutable mode)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}
	o := options{
		addr:        *addr,
		debugAddr:   *debugAddr,
		traceOut:    *traceOut,
		drainWait:   *drainWait,
		mutable:     *mutableOn,
		refineEvery: *refineEvery,
		cfg: serve.Config{
			L:               *l,
			Epsilon:         *epsilon,
			QueueDepth:      *queue,
			Workers:         *workers,
			DefaultDeadline: *deadline,
			MaxDeadline:     *maxDeadline,
		},
	}

	elem, err := dnnd.StoreElem(*storeDir)
	if err != nil {
		fatal(err)
	}
	switch elem {
	case "float32":
		err = run[float32](*storeDir, o)
	case "uint8":
		err = run[uint8](*storeDir, o)
	case "uint32":
		err = run[uint32](*storeDir, o)
	default:
		err = fmt.Errorf("unknown element type %q", elem)
	}
	if err != nil {
		fatal(err)
	}
}

type options struct {
	addr, debugAddr string
	traceOut        string
	cfg             serve.Config
	drainWait       time.Duration
	mutable         bool
	refineEvery     int
}

// run loads the store, serves it until the daemon drains, and returns
// the first error on the way; main reports it and exits 1.
func run[T dnnd.Scalar](storeDir string, o options) error {
	addr, debugAddr, cfg, drainWait := o.addr, o.debugAddr, o.cfg, o.drainWait
	ix, pending, tombs, st, err := dnnd.LoadMutable[T](storeDir)
	if err != nil {
		return err
	}
	if !o.mutable {
		if err := st.CheckClean(storeDir); err != nil {
			return err
		}
	}
	src := serve.Source[T]{
		Graph:   ix.Graph(),
		Data:    ix.Data(),
		Dist:    ix.Dist(),
		Metric:  string(ix.Metric()),
		K:       ix.K(),
		Refined: st.Refined,
	}
	var tracer *obs.Tracer
	if debugAddr != "" || o.traceOut != "" {
		tracer = obs.NewTracer(0)
		cfg.Trace = tracer.Track("serve", 0)
	}
	s, err := serve.New(src, cfg)
	if err != nil {
		return err
	}
	if o.mutable {
		bopt := dnnd.BuildOptions{K: st.K, Metric: st.Metric, Seed: 1}
		mcfg := serve.MutableConfig[T]{
			RefineEvery: o.refineEvery,
			Gen:         uint64(st.Gen),
			Tombs:       tombs,
			Pending:     pending,
			Refine: func(data [][]T, prior *dnnd.Graph, dead *dnnd.Tombstones) (*dnnd.Graph, error) {
				res, err := dnnd.Refresh(data, prior, dead, bopt)
				if err != nil {
					return nil, err
				}
				return res.Graph, nil
			},
			// Every published snapshot is written back to the store as
			// its next generation.
			Publish: func(g *dnnd.Graph, data [][]T, tb *dnnd.Tombstones, gen uint64) error {
				pix, err := dnnd.NewIndex(g, data, st.Metric, st.K)
				if err != nil {
					return err
				}
				return dnnd.SaveMutable(storeDir, pix, true, nil, tb, int64(gen))
			},
		}
		if err := s.EnableMutation(mcfg); err != nil {
			return err
		}
	}
	if debugAddr != "" {
		dbg, err := obs.ServeDebug(debugAddr, s.Metrics().Registry(), tracer)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("dnnd-serve: debug listener on http://%s (pprof, /metrics, /trace)\n", dbg.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if o.mutable {
		fmt.Printf("dnnd-serve: serving %d %s points mutable (metric=%s k=%d gen=%d pending=%d tombstones=%d) on %s\n",
			ix.Len(), wire.ElemName[T](), ix.Metric(), ix.K(), st.Gen, len(pending), st.TombN, ln.Addr())
	} else {
		fmt.Printf("dnnd-serve: serving %d %s points (metric=%s k=%d refined=%v) on %s\n",
			ix.Len(), wire.ElemName[T](), ix.Metric(), ix.K(), st.Refined, ln.Addr())
	}

	return serve.RunDaemon("dnnd-serve", s, ln, drainWait, tracer, o.traceOut, s.Metrics().Dump)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-serve: %v\n", err)
	os.Exit(1)
}
