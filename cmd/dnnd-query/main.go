// Command dnnd-query answers approximate nearest-neighbor queries
// against a datastore written by dnnd-construct/dnnd-optimize, and
// reports recall and throughput when ground truth is available — the
// paper's query program (Section 5.3.1).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dnnd"
	"dnnd/internal/knng"
	"dnnd/internal/recall"
	"dnnd/internal/vecio"
)

func main() {
	var (
		storeDir  = flag.String("store", "", "datastore directory (required)")
		queryFile = flag.String("queries", "", "query vector file (.fvecs/.bvecs/.ivecs, required)")
		truthFile = flag.String("truth", "", "ground-truth .ivecs file (optional)")
		l         = flag.Int("l", 10, "neighbors per query")
		epsilon   = flag.Float64("epsilon", 0.1, "search expansion parameter")
		workers   = flag.Int("workers", 0, "query workers (0 = GOMAXPROCS)")
		forest    = flag.Int("forest", 0, "rp-tree entry forest size (0 = random entry points)")
	)
	flag.Parse()
	if *storeDir == "" || *queryFile == "" {
		fatal(fmt.Errorf("-store and -queries are required"))
	}

	elem, err := dnnd.StoreElem(*storeDir)
	if err != nil {
		fatal(err)
	}
	switch elem {
	case "float32":
		run[float32](*storeDir, *queryFile, *truthFile, *l, *epsilon, *workers, *forest)
	case "uint8":
		run[uint8](*storeDir, *queryFile, *truthFile, *l, *epsilon, *workers, *forest)
	case "uint32":
		run[uint32](*storeDir, *queryFile, *truthFile, *l, *epsilon, *workers, *forest)
	default:
		fatal(fmt.Errorf("unknown element type %q", elem))
	}
}

func run[T dnnd.Scalar](storeDir, queryFile, truthFile string, l int, epsilon float64, workers, forest int) {
	queries, err := vecio.ReadFile[T](queryFile)
	if err != nil {
		fatal(err)
	}
	ix, refined, err := dnnd.LoadWithMeta[T](storeDir)
	if err != nil {
		fatal(err)
	}
	if err := checkDims(queries, ix.Data()); err != nil {
		fatal(err)
	}
	if forest > 0 {
		if err := ix.BuildEntryForest(forest); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	results, evals := ix.SearchBatch(queries, l, epsilon, workers)
	wall := time.Since(start)
	qps := float64(len(queries)) / wall.Seconds()

	fmt.Printf("dnnd-query: %d queries, l=%d epsilon=%.2f refined=%v: %.1f qps, %.1f dist-evals/query\n",
		len(queries), l, epsilon, refined, qps, float64(evals)/float64(len(queries)))

	if truthFile != "" {
		truth, err := vecio.ReadFile[uint32](truthFile)
		if err != nil {
			fatal(err)
		}
		if len(truth) != len(queries) {
			fatal(fmt.Errorf("%d truth rows for %d queries", len(truth), len(queries)))
		}
		got := make([][]knng.ID, len(results))
		for i, ns := range results {
			ids := make([]knng.ID, len(ns))
			for j, e := range ns {
				ids[j] = e.ID
			}
			got[i] = ids
		}
		s := recall.Summarize(got, truth, l)
		fmt.Printf("dnnd-query: recall@%d mean=%.4f p10=%.3f p50=%.3f p90=%.3f min=%.3f\n",
			l, s.Mean, s.P10, s.P50, s.P90, s.Min)
	}

	// Echo the first result so piping into tools is useful.
	if len(results) > 0 {
		var sb strings.Builder
		for _, e := range results[0] {
			fmt.Fprintf(&sb, " %d:%.4f", e.ID, e.Dist)
		}
		fmt.Printf("dnnd-query: query[0] ->%s\n", sb.String())
	}
}

// checkDims rejects a query whose dimension differs from the store's:
// the kernels score a shorter query against a prefix of each row and
// index out of range on a longer one. Dense rows share one dimension;
// uint32 rows are Jaccard sets of any length and are not checked.
func checkDims[T dnnd.Scalar](queries, data [][]T) error {
	if _, sets := any(data).([][]uint32); sets || len(data) == 0 {
		return nil
	}
	for i, q := range queries {
		if len(q) != len(data[0]) {
			return fmt.Errorf("query %d has dimension %d, store has %d", i, len(q), len(data[0]))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-query: %v\n", err)
	os.Exit(1)
}
