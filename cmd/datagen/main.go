// Command datagen materializes the synthetic dataset substitutes to
// standard ANN-benchmark vector files: base vectors, query vectors,
// and brute-force ground truth.
//
// Float32 presets write .fvecs, uint8 presets .bvecs, Jaccard presets
// .ivecs (variable-length sorted sets); ground truth is always .ivecs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dnnd/internal/brute"
	"dnnd/internal/dataset"
	"dnnd/internal/metric"
	"dnnd/internal/vecio"
	"dnnd/internal/wire"
)

func main() {
	var (
		preset  = flag.String("preset", "deep", "dataset preset (see -list)")
		n       = flag.Int("n", 0, "number of base points (0 = preset default)")
		nq      = flag.Int("queries", 1000, "number of query points")
		k       = flag.Int("k", 10, "ground-truth neighbors per query")
		seed    = flag.Int64("seed", 1, "generator seed")
		outDir  = flag.String("out", ".", "output directory")
		list    = flag.Bool("list", false, "list presets and exit")
		noTruth = flag.Bool("no-truth", false, "skip brute-force ground truth")
	)
	flag.Parse()

	if *list {
		fmt.Println("preset          dim  paper-entries  default-entries  metric   elem")
		for _, p := range dataset.Presets {
			fmt.Printf("%-15s %4d %14d %16d  %-8s %s\n",
				p.Name, p.Dim, p.PaperEntries, p.DefaultEntries, p.Metric, p.Elem)
		}
		return
	}

	p, err := dataset.ByName(*preset)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	base := dataset.Generate(p, *n, *seed)
	queries := dataset.GenerateQueries(p, *nq, *seed)

	prefix := filepath.Join(*outDir, p.Name)
	switch p.Elem {
	case dataset.ElemFloat32:
		write(prefix, "fvecs", base.F32, queries.F32, p.Metric, *k, !*noTruth)
	case dataset.ElemUint8:
		write(prefix, "bvecs", base.U8, queries.U8, p.Metric, *k, !*noTruth)
	case dataset.ElemUint32:
		write(prefix, "ivecs", base.U32, queries.U32, p.Metric, *k, !*noTruth)
	}
	fmt.Printf("datagen: wrote %s (%d base, %d queries) to %s\n",
		p.Name, base.Len(), queries.Len(), *outDir)
}

// write writes base and queries to prefix-base.ext and prefix-query.ext
// and, with truth, the IDs of each query's k nearest base rows under
// kind to prefix-truth.ivecs.
func write[T wire.Scalar](prefix, ext string, base, queries [][]T, kind metric.Kind, k int, truth bool) {
	must(vecio.WriteFile(prefix+"-base."+ext, base))
	must(vecio.WriteFile(prefix+"-query."+ext, queries))
	if !truth {
		return
	}
	dist, err := metric.For[T](truthKind(kind))
	if err != nil {
		fatal(err)
	}
	must(vecio.WriteFile(prefix+"-truth.ivecs", brute.TruthIDs(brute.QueryKNN(base, queries, k, dist, 0))))
}

// truthKind maps L2 to squared L2 (same ordering, cheaper) for ground
// truth computation.
func truthKind(k metric.Kind) metric.Kind {
	if k == metric.L2 {
		return metric.SquaredL2
	}
	return k
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
	os.Exit(1)
}
