// Command dnnd-bench runs the paper-reproduction experiments (one per
// table/figure of the evaluation section, plus ablations) and prints
// markdown reports.
//
// Usage:
//
//	dnnd-bench [flags] <experiment>
//
// Experiments: table1, recall, table2, fig2, fig3, fig4, batch,
// graphopt, commablate, entry, incr, msgs, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnnd/internal/bench"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "random seed for datasets and algorithms")
		quick   = flag.Bool("quick", false, "tiny datasets and sweeps (smoke run)")
		entries = flag.Int("n", 0, "override dataset size (0 = experiment default)")
		queries = flag.Int("queries", 0, "override query-set size (0 = default)")
		outPath = flag.String("o", "", "write the report to this file instead of stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dnnd-bench [flags] <table1|recall|table2|fig2|fig3|fig4|batch|graphopt|commablate|entry|incr|msgs|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	exp := flag.Arg(0)

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	opt := bench.Options{
		Out:     out,
		Seed:    *seed,
		Quick:   *quick,
		Entries: *entries,
		Queries: *queries,
	}

	runners := map[string]func(bench.Options) error{
		"table1":     func(o bench.Options) error { _, err := bench.Table1(o); return err },
		"recall":     func(o bench.Options) error { _, err := bench.Sec52Recall(o); return err },
		"table2":     func(o bench.Options) error { _, err := bench.Table2HnswSurvey(o); return err },
		"fig2":       func(o bench.Options) error { _, err := bench.Fig2QualityTradeoff(o); return err },
		"fig3":       func(o bench.Options) error { _, err := bench.Fig3Construction(o); return err },
		"fig4":       func(o bench.Options) error { _, err := bench.Fig4CommSaving(o); return err },
		"batch":      func(o bench.Options) error { _, err := bench.BatchSizeAblation(o); return err },
		"graphopt":   func(o bench.Options) error { _, err := bench.GraphOptAblation(o); return err },
		"commablate": func(o bench.Options) error { _, err := bench.CommSavingAblation(o); return err },
		"entry":      func(o bench.Options) error { _, err := bench.EntryPointAblation(o); return err },
		"incr":       func(o bench.Options) error { _, err := bench.IncrementalAblation(o); return err },
		"msgs":       func(o bench.Options) error { _, err := bench.MessageCatalog(o); return err },
	}

	order := []string{"table1", "recall", "table2", "fig2", "fig3", "fig4", "batch", "graphopt", "commablate", "entry", "incr", "msgs"}
	var todo []string
	if exp == "all" {
		todo = order
	} else if _, ok := runners[exp]; ok {
		todo = []string{exp}
	} else {
		fmt.Fprintf(os.Stderr, "dnnd-bench: unknown experiment %q\n", exp)
		flag.Usage()
		os.Exit(2)
	}

	for _, name := range todo {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "dnnd-bench: running %s...\n", name)
		if err := runners[name](opt); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(os.Stderr, "dnnd-bench: %s done in %s\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-bench: %v\n", err)
	os.Exit(1)
}
