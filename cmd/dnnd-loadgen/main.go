// Command dnnd-loadgen drives a running dnnd-serve with a closed- or
// open-loop query load and emits a JSON latency report, making serving
// performance a measured axis like construction throughput already is.
// It asks the server (hello frame) for the element type and
// dimensionality, so only the address is required; query vectors are
// synthesized unless a vector file is supplied.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"dnnd/internal/serve"
	"dnnd/internal/vecio"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7741", "dnnd-serve address")
		requests    = flag.Int("n", 1000, "total requests")
		concurrency = flag.Int("c", 8, "concurrent workers (closed-loop width)")
		conns       = flag.Int("conns", 0, "pipelined connections shared by the workers (0 = one connection per worker)")
		qps         = flag.Float64("qps", 0, "open-loop arrival rate (0 = closed loop)")
		nq          = flag.Int("queries", 256, "distinct synthetic query vectors")
		queryFile   = flag.String("query-file", "", "query vector file (.fvecs/.bvecs/.ivecs) instead of synthetic")
		l           = flag.Int("l", 0, "neighbors per query (0 = server default)")
		epsilon     = flag.Float64("epsilon", 0, "search expansion (0 = server default)")
		deadline    = flag.Duration("deadline", 0, "per-query deadline (0 = server default)")
		seed        = flag.Int64("seed", 1, "query / entry-point seed")
		mutate      = flag.Bool("mutate", false, "mixed read/write mode against a mutable server (per-op-class quantiles in the report)")
		ingestFrac  = flag.Float64("ingest-frac", 0, "share of requests that become ingest ops (mutate mode; default 0.05)")
		deleteFrac  = flag.Float64("delete-frac", 0, "share of requests that become delete ops (mutate mode; default 0.02)")
		ingestBatch = flag.Int("ingest-batch", 0, "vectors per ingest op (mutate mode; default 4)")
		flushEvery  = flag.Int("flush-every", 0, "turn every Nth request into a blocking flush (mutate mode; 0 = background refinement only)")
		reportErrs  = flag.Bool("report-errors", false, "count replies per status code and transport errors per kind in the report")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests stamped with a sampled trace context (0..1); the report then lists the trace IDs of the slowest percentile")
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	probe, err := serve.Dial(*addr, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	hello, err := probe.Hello()
	probe.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dnnd-loadgen: %s: %d %s points, dim=%d, k=%d, default l=%d epsilon=%.2f\n",
		*addr, hello.N, hello.Elem, hello.Dim, hello.K, hello.DefaultL, hello.DefaultEpsilon)

	cfg := serve.LoadConfig{
		Addr:         *addr,
		Requests:     *requests,
		Concurrency:  *concurrency,
		Conns:        *conns,
		QPS:          *qps,
		L:            *l,
		Epsilon:      *epsilon,
		Deadline:     *deadline,
		Seed:         *seed,
		DialTimeout:  5 * time.Second,
		ReportErrors: *reportErrs,
		TraceSample:  *traceSample,

		Mutate:         *mutate,
		IngestFraction: *ingestFrac,
		DeleteFraction: *deleteFrac,
		IngestBatch:    *ingestBatch,
		FlushEvery:     *flushEvery,
	}
	dim := int(hello.Dim)
	var rep *serve.Report
	switch hello.Elem {
	case "float32":
		qs, err := queriesFloat32(*queryFile, *nq, dim, *seed)
		if err != nil {
			fatal(err)
		}
		rep, err = serve.RunLoad(cfg, qs)
		if err != nil {
			fatal(err)
		}
	case "uint8":
		qs, err := queriesUint8(*queryFile, *nq, dim, *seed)
		if err != nil {
			fatal(err)
		}
		rep, err = serve.RunLoad(cfg, qs)
		if err != nil {
			fatal(err)
		}
	case "uint32":
		qs, err := queriesUint32(*queryFile, *nq, dim, *seed)
		if err != nil {
			fatal(err)
		}
		rep, err = serve.RunLoad(cfg, qs)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("server reports unknown element type %q", hello.Elem))
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
}

func queriesFloat32(file string, nq, dim int, seed int64) ([][]float32, error) {
	if file != "" {
		return vecio.ReadFvecsFile(file)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float32, nq)
	for i := range qs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		qs[i] = v
	}
	return qs, nil
}

func queriesUint8(file string, nq, dim int, seed int64) ([][]uint8, error) {
	if file != "" {
		return vecio.ReadBvecsFile(file)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]uint8, nq)
	for i := range qs {
		v := make([]uint8, dim)
		for j := range v {
			v[j] = uint8(rng.Intn(256))
		}
		qs[i] = v
	}
	return qs, nil
}

// queriesUint32 synthesizes sorted distinct sets (the uint32 element
// type backs Jaccard set data).
func queriesUint32(file string, nq, dim int, seed int64) ([][]uint32, error) {
	if file != "" {
		return vecio.ReadIvecsFile(file)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]uint32, nq)
	for i := range qs {
		seen := make(map[uint32]bool, dim)
		for len(seen) < dim {
			seen[uint32(rng.Intn(8*dim))] = true
		}
		v := make([]uint32, 0, dim)
		for x := range seen {
			v = append(v, x)
		}
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		qs[i] = v
	}
	return qs, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-loadgen: %v\n", err)
	os.Exit(1)
}
