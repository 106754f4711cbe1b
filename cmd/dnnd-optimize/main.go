// Command dnnd-optimize applies offline graph maintenance to a
// datastore: the Section 4.5 optimizations (reverse-edge merge and
// degree pruning to k*m) by default, or -compact to fold a mutable
// store's pending delta and tombstones into its base (delta vectors
// join the dataset, dead points are physically removed with IDs
// compacted dense, and a warm-started refinement repairs the graph),
// mirroring the paper's separate optimization executable that
// reattaches to the Metall store. -split N instead partitions the
// store into N shard stores plus a shard manifest (the offline half of
// the cluster workflow; see dnnd-router for the online half): each
// shard's graph starts from the store's own graph and gets a short warm
// refine over its slice.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dnnd"
)

func main() {
	var (
		storeDir = flag.String("store", "", "datastore directory (required)")
		m        = flag.Float64("m", 1.5, "degree cap multiplier, >= 1 (prune to k*m)")
		compact  = flag.Bool("compact", false, "fold a mutable store's delta + tombstones into its base (rewrites the store as a clean snapshot at the next generation)")
		seed     = flag.Int64("seed", 1, "compaction or shard refine seed")
		split    = flag.Int("split", 0, "partition the store into this many shard stores plus a manifest (see -split-out)")
		splitOut = flag.String("split-out", "", "output directory for -split (required with it; gets shard0..shardN-1 and manifest/)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}
	elem, err := dnnd.StoreElem(*storeDir)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	if *split > 0 {
		if *compact {
			fatal(fmt.Errorf("-split and -compact are mutually exclusive"))
		}
		if *splitOut == "" {
			fatal(fmt.Errorf("-split requires -split-out"))
		}
		opt := dnnd.BuildOptions{Seed: *seed, PruneFactor: *m}
		man, err := dnnd.SplitStore(*storeDir, *splitOut, *split, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dnnd-optimize: split %s (%d %s points) into %d shards under %s in %s\n",
			*storeDir, man.N, man.Elem, len(man.Shards), *splitOut,
			time.Since(start).Round(time.Millisecond))
		for i, sh := range man.Shards {
			fmt.Printf("  shard%d: %d points\n", i, sh.Count)
		}
		return
	}
	if *compact {
		opt := dnnd.BuildOptions{Seed: *seed, PruneFactor: *m}
		var mapping []dnnd.ID
		switch elem {
		case "float32":
			mapping, err = dnnd.Compact[float32](*storeDir, opt)
		case "uint8":
			mapping, err = dnnd.Compact[uint8](*storeDir, opt)
		case "uint32":
			mapping, err = dnnd.Compact[uint32](*storeDir, opt)
		default:
			err = fmt.Errorf("unknown element type %q", elem)
		}
		if err != nil {
			fatal(err)
		}
		remapped := "IDs unchanged"
		if mapping != nil {
			remapped = fmt.Sprintf("%d IDs remapped", len(mapping))
		}
		fmt.Printf("dnnd-optimize: compacted %s (%s) in %s\n",
			*storeDir, remapped, time.Since(start).Round(time.Millisecond))
		return
	}
	switch elem {
	case "float32":
		err = dnnd.Refine[float32](*storeDir, *m)
	case "uint8":
		err = dnnd.Refine[uint8](*storeDir, *m)
	case "uint32":
		err = dnnd.Refine[uint32](*storeDir, *m)
	default:
		err = fmt.Errorf("unknown element type %q", elem)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dnnd-optimize: refined %s (m=%.2f) in %s\n",
		*storeDir, *m, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnnd-optimize: %v\n", err)
	os.Exit(1)
}
